package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/ea"
	"repro/internal/exp"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/types"
)

const (
	simN, simT = 7, 2
	// simUnit, simBatch and simPipeline are minsync-node's defaults
	// (-unit, -batch, -pipeline): the simulated replicas run the shipped
	// log configuration.
	simUnit     = types.Duration(50 * time.Millisecond)
	simBatch    = 16
	simPipeline = 4
	// simDelta bounds the timely channels (the bisource's, and every
	// channel of the burst workload's synchronous network).
	simDelta = types.Duration(10 * time.Millisecond)
	// simSetupWarm, simSetupMin and simSetupBudget shape the one-command
	// runs that time setup_s on the sim workloads.
	simSetupWarm   = 5
	simSetupMin    = 31
	simSetupBudget = 1500 * time.Millisecond
)

// simPlan describes one simulated workload: a fixed seed list, derived
// from the workload seed, and a spec per seed.
type simPlan struct {
	name  string
	seeds int
	build func(seed int64) runner.LogSpec
	// duel adds the splitter-duel round counts (splitterRounds) to the
	// traced run.
	duel bool
}

var bisourcePlan = simPlan{name: "sim-n7-bisource", seeds: 8, build: bisourceSpec, duel: true}
var burstPlan = simPlan{name: "sim-n7-burst", seeds: 2, build: burstSpec}

func runSimBisource(env *benchEnv) (*outcome, error) { return runSim(env, bisourcePlan) }
func runSimBurst(env *benchEnv) (*outcome, error)    { return runSim(env, burstPlan) }

// shippedLog is the log engine configuration minsync-node runs with.
func shippedLog() log.Config {
	var c log.Config
	c.Engine.TimeUnit = simUnit
	c.BatchSize, c.Pipeline = simBatch, simPipeline
	c.Coalesce, c.CanonicalBatches = true, true
	return c
}

// workloadCommands derives k distinct commands from rng.
func workloadCommands(rng *rand.Rand, k int) []types.Value {
	cmds := make([]types.Value, k)
	for i := range cmds {
		cmds[i] = types.Value(fmt.Sprintf("c%05d-%08x", i, rng.Uint32()))
	}
	return cmds
}

// bisourceSpec is the paper's environment: one ⟨t+1⟩bisource, placed by
// the seed, every other channel asynchronous. Asynchronous delays are
// mostly 1–20 ms, but one message in five takes 20–400 ms. Commands
// arrive every 20 ms of virtual time.
func bisourceSpec(seed int64) runner.LogSpec {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(simN)
	proc := func(i int) types.ProcID { return types.ProcID(perm[i] + 1) }
	spec := runner.LogSpec{
		Params: types.Params{N: simN, T: simT},
		Topology: network.PlantBisource(simN, network.BisourceSpec{
			P: proc(0), In: []types.ProcID{proc(1), proc(2)}, Out: []types.ProcID{proc(3), proc(4)}, Delta: simDelta,
		}),
		Policy: network.DelayFunc(func(_, _ types.ProcID, _ types.Time, r *rand.Rand) types.Duration {
			if r.Intn(5) == 0 {
				return types.Duration(20*time.Millisecond) + types.Duration(r.Int63n(int64(380*time.Millisecond)))
			}
			return types.Duration(time.Millisecond) + types.Duration(r.Int63n(int64(19*time.Millisecond)))
		}),
		Seed:        seed,
		Commands:    workloadCommands(rng, 160),
		SubmitEvery: types.Duration(20 * time.Millisecond),
		Deadline:    types.Time(10 * time.Minute),
		Log:         shippedLog(),
	}
	return spec
}

// splitterRounds measures EA round rotation, which the log's instances
// barely exercise: every correct replica is submitted the same commands,
// so replicas propose the same canonical batch (or CB[0] yields ⊥) and
// an instance decides in round 1 on the EA fast path. Per seed it runs
// the single-shot duel of the α·n bound experiment (exp.SplitterDuelSpec:
// a minimal bisource at p_n, balanced inputs, the ConsensusSplitter
// adversary splitting estimates and suppressing coordinators) with n
// processes, and returns the mean decision round over every correct
// process of every seed.
func splitterRounds(seeds []int64, n int) (float64, error) {
	p := types.Params{N: n, T: (n - 1) / 3, M: 2}
	var rounds []float64
	for _, s := range seeds {
		spec := exp.SplitterDuelSpec(p, s, ea.RelayAnyF, types.ProcID(n))
		spec.Record = false
		res, err := runner.Run(spec)
		if err != nil {
			return 0, err
		}
		if _, ok := res.CommonDecision(); !ok {
			return 0, fmt.Errorf("splitter duel n=%d seed %d: correct processes did not all decide one value", n, s)
		}
		for _, id := range res.Correct {
			rounds = append(rounds, float64(res.DecideRound[id]))
		}
	}
	mean, most := meanMax(rounds)
	report("splitter duel n=%d: EA rounds per decision mean %.3f, max %v over %d decisions", n, mean, most, len(rounds))
	return mean, nil
}

// burstSpec submits every command at time 0 on a fully synchronous
// network, so batches fill and the pipeline runs at capacity.
func burstSpec(seed int64) runner.LogSpec {
	rng := rand.New(rand.NewSource(seed))
	return runner.LogSpec{
		Params:   types.Params{N: simN, T: simT},
		Topology: network.FullySynchronous(simN, simDelta),
		Seed:     seed,
		Commands: workloadCommands(rng, 512),
		Deadline: types.Time(10 * time.Minute),
		Log:      shippedLog(),
	}
}

// vstats are a pass's virtual-time results. They are a pure function of
// the seed list, so every pass of a run, traced or not, must reproduce
// them exactly.
type vstats struct {
	Lat        []float64 // ms from submission to each replica's commit
	Submitted  int
	Committed  int // per seed, the slowest correct replica's count
	Messages   uint64
	Deliveries uint64
	Events     uint64
	Span       float64   // s of virtual time up to each seed's last commit
	Rounds     []float64 // EA round of every decided instance, every replica
	Instances  int       // instances applied (lowest correct replica)
	NoOps      int
}

// simOnce runs one seed and checks the log's safety and liveness.
func simOnce(spec runner.LogSpec, v *vstats) error {
	res, err := runner.RunLog(spec)
	if err != nil {
		return err
	}
	if !res.AllCommitted(len(spec.Commands)) {
		return fmt.Errorf("seed %d: only %d/%d commands committed everywhere", spec.Seed, res.MinCommitted(), len(spec.Commands))
	}
	if !res.Consistent() {
		return fmt.Errorf("seed %d: correct replicas committed different logs", spec.Seed)
	}
	submit := make(map[types.Value]types.Time, len(spec.Commands))
	for k, c := range spec.Commands {
		submit[c] = types.Time(types.Duration(k) * spec.SubmitEvery)
	}
	var last types.Time
	for j, id := range res.Correct {
		eng := res.Engines[id]
		// An instance is applied, and its commands committed, once it and
		// every earlier instance are decided.
		applyAt := make([]types.Time, eng.Applied())
		var at types.Time
		for i := range applyAt {
			inst := eng.Instance(types.Instance(i))
			if inst == nil {
				return fmt.Errorf("seed %d: replica %v has no engine for applied instance %d", spec.Seed, id, i)
			}
			at = max(at, inst.DecidedAt())
			applyAt[i] = at
			v.Rounds = append(v.Rounds, float64(inst.DecidedRound()))
		}
		for _, e := range res.Logs[id] {
			t := applyAt[e.Instance]
			last = max(last, t)
			v.Lat = append(v.Lat, float64(t-submit[e.Cmd])/1e6)
		}
		if j == 0 {
			v.Instances += int(eng.Applied())
			v.NoOps += eng.NoOps()
		}
	}
	v.Submitted += len(spec.Commands)
	v.Committed += res.MinCommitted()
	v.Messages += res.Messages
	v.Deliveries += res.Deliveries()
	v.Events += res.Events
	v.Span += time.Duration(last).Seconds()
	return nil
}

// simPass runs the whole seed list once; reg, if non-nil, attaches
// telemetry and causal tracing to every run.
func simPass(p simPlan, seeds []int64, reg *obs.Registry) (vstats, error) {
	var v vstats
	for _, s := range seeds {
		spec := p.build(s)
		if reg != nil {
			spec.Obs, spec.Trace = reg, &runner.TraceSpec{}
		}
		if err := simOnce(spec, &v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedPasses repeats the seed list until budget has passed (at least
// once), checking that every pass reproduces the first. It returns the
// first pass's results and the median wall and CPU time of a pass.
func timedPasses(p simPlan, seeds []int64, budget time.Duration, traced bool) (vstats, time.Duration, time.Duration, *obs.Registry, error) {
	var first vstats
	var reg *obs.Registry
	var walls, cpus []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		if traced {
			reg = obs.NewRegistry()
		}
		t0, c0 := time.Now(), cpuTime()
		v, err := simPass(p, seeds, reg)
		if err != nil {
			return first, 0, 0, nil, err
		}
		walls = append(walls, float64(time.Since(t0)))
		cpus = append(cpus, float64(cpuTime()-c0))
		if n == 0 {
			first = v
		} else if !reflect.DeepEqual(v, first) {
			return first, 0, 0, nil, fmt.Errorf("pass %d diverged from pass 0 on the same seeds", n)
		}
	}
	report("%d passes of %d seeds", len(walls), len(seeds))
	return first, time.Duration(median(walls)), time.Duration(median(cpus)), reg, nil
}

// simSetup times one-command runs, from building the spec to the first
// committed command, for simSetupBudget (at least simSetupMin runs), after
// simSetupWarm untimed ones, and returns their median in seconds. A run is
// timed in process CPU time: the simulator is one goroutine's work (plus
// the collector's), and CPU time leaves out the waits a shared machine
// imposes, which made wall-clock set-up times swing several-fold.
func simSetup(p simPlan, seed int64) (float64, error) {
	var ts []float64
	start := time.Now()
	for k := 0; len(ts) < simSetupMin || time.Since(start) < simSetupBudget; k++ {
		c0 := cpuTime()
		spec := p.build(seed*1000 + int64(k))
		spec.Commands = spec.Commands[:1]
		var v vstats
		if err := simOnce(spec, &v); err != nil {
			return 0, err
		}
		if k >= simSetupWarm {
			ts = append(ts, (cpuTime() - c0).Seconds())
		}
	}
	report("setup: median of %d one-command runs", len(ts))
	return median(ts), nil
}

// runSim runs a simulated workload.
func runSim(env *benchEnv, p simPlan) (*outcome, error) {
	seeds := make([]int64, p.seeds)
	for i := range seeds {
		seeds[i] = env.seed*1000 + int64(i)
	}
	report("%s: seeds %v", p.name, seeds)
	if env.trace {
		return runSimTraced(env, p, seeds)
	}
	v, wall, cpu, _, err := timedPasses(p, seeds, env.seconds, false)
	if err != nil {
		return nil, err
	}
	// Set-up is timed after the window: in a process the passes have
	// warmed, its median moved about half as much from run to run as in
	// a fresh one.
	setup, err := simSetup(p, env.seed)
	if err != nil {
		return nil, err
	}
	lat := summarize(v.Lat, 0.99)
	reportTiming("virtual commit latency", lat, "ms")
	cmds := float64(v.Committed)
	report("median pass: %.3f s wall, %.3f s CPU; %d commands committed per pass, %d messages", wall.Seconds(), cpu.Seconds(), v.Committed, v.Messages)
	self, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	return &outcome{
		Attempted: v.Submitted,
		Failed:    v.Submitted - v.Committed,
		Metrics: map[string]float64{
			"setup_s":               setup,
			"ok_frac":               ratio(cmds, float64(v.Submitted)),
			"commit_p50_ms":         lat.P50,
			"commit_p99_ms":         lat.Tail,
			"throughput_cmds_per_s": cmds / v.Span,
			"cpu_ms_per_cmd":        cpu.Seconds() * 1000 / cmds,
			"rss_peak_mb":           float64(self.HWMKB) / 1024,
			"msgs_per_cmd":          float64(v.Messages) / cmds,
		},
	}, nil
}

// runSimTraced measures untraced passes for half the window, then traced
// ones (telemetry and causal tracing) for the other half, and checks that
// tracing changed no virtual-time result. Both halves run under a CPU
// profile, so trace.overhead_frac compares tracing alone; the traced
// half's profile gives the CPU shares.
func runSimTraced(env *benchEnv, p simPlan, seeds []int64) (*outcome, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, err := simPass(p, seeds, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	var prof0, prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof0); err != nil {
		return nil, err
	}
	_, wall0, _, _, err := timedPasses(p, seeds, env.seconds/2, false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, wall1, _, reg, err := timedPasses(p, seeds, env.seconds/2, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(plain, traced) {
		return nil, fmt.Errorf("passivity: the traced pass changed virtual-time results (msgs %d vs %d, committed %d vs %d)", plain.Messages, traced.Messages, plain.Committed, traced.Committed)
	}
	report("passivity: traced and untraced passes agree exactly (%d latencies, %d messages)", len(plain.Lat), plain.Messages)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	all, err := parseProm(&buf)
	if err != nil {
		return nil, err
	}
	cmds := float64(plain.Committed)
	m := stageMetrics(all, 1e-6)
	countMetrics(m, all, cmds)
	m["log.instances_per_cmd"] = float64(plain.Instances) / cmds
	m["log.noop_frac"] = ratio(float64(plain.NoOps), float64(plain.Instances))
	m["ea.rounds_per_decision_mean"], m["ea.rounds_per_decision_max"] = meanMax(plain.Rounds)
	report("log instances: EA rounds per decision mean %.4f, max %v over %d decisions", m["ea.rounds_per_decision_mean"], m["ea.rounds_per_decision_max"], len(plain.Rounds))
	if p.duel {
		for _, n := range []int{4, 7} {
			if m[fmt.Sprintf("ea.splitter_rounds_n%d_mean", n)], err = splitterRounds(seeds, n); err != nil {
				return nil, err
			}
		}
	}
	m["sim.events_per_cmd"] = float64(plain.Events) / cmds
	m["sim.deliveries_per_cmd"] = float64(plain.Deliveries) / cmds
	m["sim.allocs_per_cmd"] = float64(ms1.Mallocs-ms0.Mallocs) / cmds
	m["sim.alloc_bytes_per_cmd"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / cmds
	m["trace.overhead_frac"] = (wall1.Seconds() - wall0.Seconds()) / wall0.Seconds()
	pr, err := parsePprof(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range cpuShares([]*profile{pr}) {
		m[k] = v
	}
	report("%.1f sim cmds/s untraced, %.1f traced", cmds/wall0.Seconds(), cmds/wall1.Seconds())
	return &outcome{Attempted: plain.Submitted, Failed: plain.Submitted - plain.Committed, Metrics: m}, nil
}

// meanMax returns the mean and the largest of xs (0, 0 if empty).
func meanMax(xs []float64) (mean, most float64) {
	var sum float64
	for _, x := range xs {
		sum += x
		most = max(most, x)
	}
	return ratio(sum, float64(len(xs))), most
}
