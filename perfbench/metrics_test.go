package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json at the repository
// root and the metric and workload tables of this package in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestResultLine(t *testing.T) {
	all := map[string]float64{}
	for _, d := range endToEnd {
		all[d.Name] = 1.5
	}
	line, err := resultLine(&outcome{Attempted: 3, Metrics: all}, false)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Attempted != 3 || len(doc.Metrics) != len(endToEnd) || doc.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result %s", line)
	}
	delete(all, "setup_s")
	if _, err := resultLine(&outcome{Attempted: 3, Metrics: all}, false); err == nil {
		t.Error("an unmeasured end-to-end metric was accepted")
	}
	// Per-layer metrics of layers a workload does not run read 0.
	line, err = resultLine(&outcome{Attempted: 1, Metrics: map[string]float64{}}, true)
	if err != nil {
		t.Fatal(err)
	}
	doc.Metrics = nil
	if err := json.Unmarshal(line, &doc); err != nil || len(doc.Metrics) != len(perLayer) {
		t.Errorf("traced result %s (%v)", line, err)
	}
}
