package main

import (
	"strings"
	"testing"
)

const exposition = `# TYPE minsync_wire_frames_total counter
minsync_wire_frames_total{dir="recv",kind="EA_COORD"} 7
minsync_wire_frames_total{dir="sent",kind="EA_COORD"} 10
minsync_wire_frames_total{dir="sent",kind="RB_VECTOR"} 32
# TYPE minsync_stage_latency_ns histogram
minsync_stage_latency_ns_bucket{stage="apply",le="1000"} 4
minsync_stage_latency_ns_bucket{stage="apply",le="2000"} 9
minsync_stage_latency_ns_bucket{stage="apply",le="+Inf"} 10
minsync_stage_latency_ns_sum{stage="apply"} 12345
minsync_stage_latency_ns_count{stage="apply"} 10
minsync_stage_latency_ns_bucket{stage="respond",le="1000"} 1
minsync_stage_latency_ns_bucket{stage="respond",le="2000"} 1
minsync_stage_latency_ns_bucket{stage="respond",le="+Inf"} 1
minsync_escaped{path="a\"b\\c"} 1
minsync_rt_inbox_depth 3
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromAndSums(t *testing.T) {
	s := mustParse(t, exposition)
	if got := s.sum("minsync_wire_frames_total", "dir", "sent"); got != 42 {
		t.Errorf("sent frames %v, want 42", got)
	}
	if got := s.sum("minsync_wire_frames_total"); got != 49 {
		t.Errorf("all frames %v, want 49", got)
	}
	if got := s.sumPrefix("minsync_wire_frames_total", "kind", "EA_", "dir", "sent"); got != 10 {
		t.Errorf("EA frames sent %v, want 10", got)
	}
	if got := s.sum("minsync_rt_inbox_depth"); got != 3 {
		t.Errorf("unlabeled gauge %v", got)
	}
	if got := s.sum("minsync_escaped", "path", `a"b\c`); got != 1 {
		t.Errorf("escaped label value not matched")
	}
	bounds, counts := s.histogram("minsync_stage_latency_ns", "stage", "apply")
	if len(bounds) != 2 || bounds[0] != 1000 || bounds[1] != 2000 {
		t.Fatalf("bounds %v", bounds)
	}
	if want := []uint64{4, 5, 1}; len(counts) != 3 || counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Errorf("counts %v, want %v", counts, want)
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"x{a=\"1\" 3\n",
		"x{a=1} 3\n",
		"x 1.2.3\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestWindowDeltasAcrossReplicasAndRestarts(t *testing.T) {
	before := mustParse(t, "c_total{proc=\"1\"} 10\nc_total{proc=\"2\"} 5\n")
	after := mustParse(t, "c_total{proc=\"1\"} 25\nc_total{proc=\"2\"} 5\nnew_total 4\n")
	d := delta(before, after)
	if got := d.sum("c_total", "proc", "1"); got != 15 {
		t.Errorf("delta proc 1 = %v, want 15", got)
	}
	if got := d.sum("c_total", "proc", "2"); got != 0 {
		t.Errorf("delta proc 2 = %v, want 0", got)
	}
	if got := d.sum("new_total"); got != 4 {
		t.Errorf("series new in the window = %v, want 4", got)
	}
	// A restarted process counts from zero: its whole total is added to
	// what the killed process contributed.
	restarted := mustParse(t, "c_total{proc=\"1\"} 3\n")
	total := add(d, delta(nil, restarted))
	if got := total.sum("c_total", "proc", "1"); got != 18 {
		t.Errorf("across a restart = %v, want 18", got)
	}
	// Histogram buckets are counters too.
	h0 := mustParse(t, "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n")
	h1 := mustParse(t, "h_bucket{le=\"1\"} 4\nh_bucket{le=\"+Inf\"} 9\n")
	_, counts := delta(h0, h1).histogram("h")
	if len(counts) != 2 || counts[0] != 3 || counts[1] != 4 {
		t.Errorf("bucket deltas %v, want [3 4]", counts)
	}
}
