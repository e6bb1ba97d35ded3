// Command perfbench is the repository benchmark. It runs one workload,
// checks that the system's answers are correct, and prints one JSON
// object as the last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end list in metrics.go,
// measured with causal tracing off; with -trace 1 they are the per-layer
// list, from a separate traced run. A failed correctness check prints no
// result and exits 1. Workloads and metrics are described in METRICS.md.
//
// Build and run it from the repository root through run.sh, which also
// builds the replica binary:
//
//	bash perfbench/run.sh --workload live-n4-closed --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outcome is what one workload run measured.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
}

// benchEnv carries one invocation's settings into a workload.
type benchEnv struct {
	node    string        // minsync-node binary
	work    string        // scratch directory of this invocation
	seed    int64         // workload seed
	seconds time.Duration // measurement window
	trace   bool          // per-layer (traced) run
}

var workloads = map[string]func(*benchEnv) (*outcome, error){
	"live-n4-closed":  runLiveClosed,
	"live-n4-crash":   runLiveCrash,
	"sim-n7-bisource": runSimBisource,
	"sim-n7-burst":    runSimBurst,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run (live-n4-closed, live-n4-crash, sim-n7-bisource, sim-n7-burst)")
		seed    = flag.Int64("seed", 1, "workload seed: inputs and schedules derive from it")
		seconds = flag.Int("seconds", 20, "measurement window, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		node    = flag.String("node", ".bench_build/minsync-node", "minsync-node binary (live workloads)")
		work    = flag.String("work", ".bench_build", "directory for this run's scratch files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in %v, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin, err := filepath.Abs(*node)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	// Replicas are reaped on every exit path, a signal included.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		reapAll()
		os.RemoveAll(dir)
		os.Exit(2)
	}()
	defer reapAll()

	env := &benchEnv{node: bin, work: dir, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	out, err := fn(env)
	if err == nil {
		var line []byte
		line, err = resultLine(out, env.trace)
		if err == nil {
			fmt.Println(string(line))
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	return 1
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the final JSON object. Every end-to-end metric must
// have been measured; a per-layer metric the workload does not exercise
// reads 0.
func resultLine(out *outcome, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && !traced {
			missing = append(missing, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no command attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, out.Attempted, out.Failed, metrics})
}

// report prints one human-readable line (the JSON result stays last).
func report(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// reportTiming prints a timing under the percentile rule: median, the
// tail percentile actually supported, and the sample count.
func reportTiming(what string, s summary, unit string) {
	report("%s: p50 %.3f %s, p%.2f %.3f %s (n=%d)", what, s.P50, unit, 100*s.TailQ, s.Tail, unit, s.N)
}
