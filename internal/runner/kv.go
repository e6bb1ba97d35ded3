package runner

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// KVSpec describes one replicated-KV execution on the simulator: every
// correct process runs the full service stack — log.Engine ordering
// commands, sm.Applier consuming them, kv.Store holding state — and the
// same client workload is submitted to all of them (clients broadcast
// requests, the classic BFT model).
//
// Unlike LogSpec, the workload may contain duplicate submissions: client
// retries are the point of the session layer, and the whole stack must
// stay exactly-once under them.
type KVSpec struct {
	// Params are the (n, t, m) resilience parameters (m is ignored: log
	// instances run the ⊥-validity variant).
	Params types.Params
	// Topology is the synchrony matrix (nil = fully asynchronous).
	Topology *network.Topology
	// Policy draws async-channel delays (nil = uniform 1–20 ms).
	Policy network.DelayPolicy
	// Adv optionally adversarially overrides async delays.
	Adv network.Adversary
	// FIFO enforces per-channel ordering.
	FIFO bool
	// Seed drives all randomness.
	Seed int64
	// Record keeps the trace log.
	Record bool
	// Commands is the client workload in submission order. Duplicates
	// (retries) are allowed; the reserved key prefixes of the kv codec
	// keep them well-formed.
	Commands []kv.Command
	// SubmitEvery staggers the workload: command k is submitted at time
	// k·SubmitEvery (0 = everything at time 0).
	SubmitEvery types.Duration
	// Byzantine maps faulty processes to behaviors.
	Byzantine map[types.ProcID]harness.Behavior
	// Log carries the engine knobs (Engine, BatchSize, Pipeline, MaxLead).
	// Env, Target, OnCommit and OnApply are set by the runner.
	Log log.Config
	// SnapshotEvery is the applier's snapshot cadence in entries
	// (0 = snapshots off).
	SnapshotEvery int
	// Compact retires pre-snapshot state after each snapshot. Requires
	// SnapshotEvery > 0.
	Compact bool
	// CompactKeep retains this many applied instances below the snapshot
	// boundary (echo service margin for mildly lagging peers; default 4).
	CompactKeep types.Instance
	// RecoverAt schedules crash-recoveries: at each mapped virtual time
	// the process discards its live state and rebuilds it from its latest
	// snapshot plus the retained log suffix (sm.Applier.Recover).
	RecoverAt map[types.ProcID]types.Time
	// Durable attaches a per-replica durable store (store.Memory) to
	// every correct replica: committed entries are write-ahead logged,
	// applied boundaries marked, and snapshots stamped (sm.Config.Persist)
	// before application proceeds, so a simulated crash-restart can
	// rebuild the replica from its own "disk" (sm.Boot). Off by default —
	// with it off the stack runs the exact pre-persistence code path.
	Durable bool
	// CrashRestart schedules simulated power failures: at each mapped
	// virtual time the process is powered off (harness.World.Kill — its
	// dispatcher drops, outbound sends are fenced, pending timer callbacks
	// are voided) and RestartDelay later rebuilt as a FRESH incarnation
	// that boots from its durable store (sm.Boot + log.Engine.Resume),
	// not from a peer snapshot transfer. Requires Durable. Unlike
	// RecoverAt, which rebuilds only the applier in place, this loses ALL
	// volatile state: engine, dedup dispatcher, transfer layer, timers.
	// The rebooted incarnation re-submits the whole workload (commit
	// dedup drops what already landed) because the crashed incarnation's
	// pending commands died with it.
	CrashRestart map[types.ProcID]types.Time
	// RestartDelay is the downtime between power-off and reboot
	// (default 25ms of virtual time).
	RestartDelay types.Duration
	// Transfer enables peer-to-peer snapshot state transfer (sm.Transfer)
	// on every correct replica: a replica that falls more than MaxLead
	// instances behind fetches a corroborated peer snapshot and resumes
	// from its boundary instead of stalling forever. Requires
	// SnapshotEvery > 0 (there must be snapshots to serve). Off by
	// default: the transfer layer arms probe timers and can inject
	// request/response traffic, which perturbs digest-pinned schedules.
	Transfer bool
	// TransferRetry and TransferProbe override sm.TransferConfig's
	// RetryEvery/StallProbe cadences (0 = the sm defaults).
	TransferRetry types.Duration
	TransferProbe types.Duration
	// Target, when > 0, overrides the stop rule with a raw entry-count
	// target (log.Config.Target semantics). The default stop rule counts
	// DISTINCT workload commands instead: under compaction a forgotten
	// duplicate can legitimately commit twice, and raw entry counts would
	// let engines close before every distinct command is ordered.
	Target int
	// SnapshotRefresh forwards to sm.Config.RefreshEvery: re-stamp the
	// snapshot every SnapshotRefresh applied instances even when no new
	// entries landed since the last one, so long-idle clusters keep a
	// fresh transfer boundary for rejoining replicas (0 = off).
	SnapshotRefresh types.Instance
	// Obs, if non-nil, attaches live telemetry to every correct replica:
	// log/sm/kv/transfer/RB/dedup bundles labeled proc="<id>" plus one
	// shared commit-latency histogram (submission → first local commit).
	// Passive: an observed run is trace-identical to an unobserved one.
	Obs *obs.Registry
	// Trace, if non-nil, attaches causal command tracing per correct
	// replica (see LogSpec.Trace): spans cover submit → batch →
	// consensus → apply, with RB phase transitions. Passive.
	Trace *TraceSpec
	// Deadline bounds virtual time (0 = run to drain).
	Deadline types.Time
	// MaxEvents bounds the number of simulation events (0 = unlimited).
	MaxEvents uint64
}

// KVResult is the outcome of one replicated-KV execution.
type KVResult struct {
	LogResult
	// Stores holds every correct process's live state machine.
	Stores map[types.ProcID]*kv.Store
	// Appliers holds the sm layer of every correct process.
	Appliers map[types.ProcID]*sm.Applier
	// StateDigests is the SHA-256 of each correct process's final machine
	// state — byte-identical state ⇒ identical digests.
	StateDigests map[types.ProcID][32]byte
	// SnapshotLog records every snapshot each correct process took, in
	// order (Index/Instance/Digest; Data omitted).
	SnapshotLog map[types.ProcID][]sm.Snapshot
	// RecoverErrs records failed Recover calls (nil entries are success).
	RecoverErrs map[types.ProcID]error
	// Transfers maps each correct process to the sm.Transfer layer's
	// install count (snapshots adopted from peers); TransferServed counts
	// snapshots it served to peers. Both empty unless KVSpec.Transfer.
	Transfers      map[types.ProcID]int
	TransferServed map[types.ProcID]int
	// Covered maps each correct process to the number of DISTINCT
	// workload commands it committed (duplicates and forged commands
	// excluded); Distinct is the workload's distinct-command count.
	Covered  map[types.ProcID]int
	Distinct int
	// Durables maps each correct replica to its durable store (only with
	// KVSpec.Durable); it survives simulated crashes, so post-run checks
	// can re-Recover it (DurablePrefix).
	Durables map[types.ProcID]*store.Memory
	// Boots records what each crash-restarted replica recovered at reboot
	// time (keys of KVSpec.CrashRestart); BootErrs records reboots that
	// failed — the replica stays powered off for the rest of the run.
	Boots    map[types.ProcID]sm.BootStats
	BootErrs map[types.ProcID]error
}

// MinCovered returns the smallest distinct-command coverage among
// correct processes.
func (r *KVResult) MinCovered() int {
	min := -1
	for _, id := range r.Correct {
		if n := r.Covered[id]; min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// CoveredAll reports whether every correct process committed every
// distinct workload command (the KV termination property — robust to
// post-compaction duplicate commits, unlike raw entry counts).
func (r *KVResult) CoveredAll() bool {
	return len(r.Correct) > 0 && r.MinCovered() >= r.Distinct
}

// StatesAgree reports whether every pair of correct processes with the
// same applied count has the same state digest, and that processes at
// different applied counts at least took byte-identical snapshots at
// common snapshot indexes (SnapshotsAgree).
func (r *KVResult) StatesAgree() bool {
	byApplied := make(map[int][32]byte)
	for _, id := range r.Correct {
		a := r.Appliers[id]
		if a == nil {
			return false
		}
		d := r.StateDigests[id]
		if prev, ok := byApplied[a.Applied()]; ok && prev != d {
			return false
		}
		byApplied[a.Applied()] = d
	}
	return len(r.Correct) > 0 && r.SnapshotsAgree()
}

// SnapshotsAgree reports whether every snapshot index reached by two or
// more correct processes produced byte-identical snapshots (equal
// digests) everywhere.
func (r *KVResult) SnapshotsAgree() bool {
	byIndex := make(map[int][32]byte)
	for _, id := range r.Correct {
		for _, s := range r.SnapshotLog[id] {
			if prev, ok := byIndex[s.Index]; ok && prev != s.Digest {
				return false
			}
			byIndex[s.Index] = s.Digest
		}
	}
	return true
}

// ReferenceDivergence replays the reference process's committed log
// through a fresh single-node store and compares digests with the live
// replicated state: any difference means the applier path diverged from
// the sequential semantics. Returns "" when they match. The reference is
// the first correct process with a FULL history — it committed every
// entry its state reflects, from index 0 on: a replica that joined via
// snapshot transfer holds only a suffix locally, and one that committed a
// prefix, crash-restarted and then transferred holds entries that stop
// short of its state — neither can be replayed from scratch. If no
// full-history replica exists the check is vacuous.
func (r *KVResult) ReferenceDivergence() string {
	if len(r.Correct) == 0 {
		return "no correct processes"
	}
	ref := types.NoProc
	for _, id := range r.Correct {
		lg, app := r.Logs[id], r.Appliers[id]
		if len(lg) > 0 && lg[0].Index == 0 && app != nil && lg[len(lg)-1].Index == app.Applied()-1 {
			ref = id
			break
		}
	}
	if ref == types.NoProc {
		return "" // every correct replica transferred in; nothing to replay
	}
	oracle := kv.NewStore()
	for _, e := range r.Logs[ref] {
		oracle.Apply(e.Cmd)
	}
	app := r.Appliers[ref]
	if app == nil {
		return "no applier at reference process"
	}
	want := sm.Digest(oracle)
	if got := r.StateDigests[ref]; got != want {
		return fmt.Sprintf("replica %v state %x diverges from sequential replay %x", ref, got[:8], want[:8])
	}
	return ""
}

// DurablePrefix checks the persistence invariant after a durable run:
// "applied ⊇ fsync'd" — a replica's disk never claims more than its
// machine (and the cluster) actually did. Concretely, for every durable
// store re-Recovered after the run: the durable applied boundary does
// not exceed the replica's applied instance frontier, the stamped
// snapshot decodes (digest round-trip) and sits at or below the
// replica's applied entry count, and every WAL entry byte-matches the
// entry the cluster committed at that index. Returns "" when the
// invariant holds; vacuous without KVSpec.Durable.
func (r *KVResult) DurablePrefix() string {
	if len(r.Durables) == 0 {
		return ""
	}
	// Reference: the union of every correct replica's committed log.
	// Overlaps agree by total order (StatesAgree checks that separately),
	// so the union is THE committed sequence.
	ref := make(map[int]log.Entry)
	for _, id := range r.Correct {
		for _, e := range r.Logs[id] {
			ref[e.Index] = e
		}
	}
	for _, id := range r.Correct {
		p := r.Durables[id]
		if p == nil {
			continue
		}
		rec, err := p.Recover()
		if err != nil {
			return fmt.Sprintf("replica %v: recover: %v", id, err)
		}
		if eng := r.Engines[id]; eng != nil && rec.Boundary > eng.Applied() {
			return fmt.Sprintf("replica %v: durable boundary %v exceeds applied frontier %v",
				id, rec.Boundary, eng.Applied())
		}
		if rec.SnapPayload != nil {
			s, _, _, derr := sm.DecodeTransfer(types.Value(rec.SnapPayload))
			if derr != nil {
				return fmt.Sprintf("replica %v: stamped snapshot: %v", id, derr)
			}
			if a := r.Appliers[id]; a != nil && s.Index > a.Applied() {
				return fmt.Sprintf("replica %v: stamped snapshot index %d exceeds applied count %d",
					id, s.Index, a.Applied())
			}
		}
		for _, e := range rec.Entries {
			want, ok := ref[e.Index]
			if !ok {
				return fmt.Sprintf("replica %v: durable entry %d absent from every committed log", id, e.Index)
			}
			if want.Instance != e.Instance || want.Cmd != e.Cmd {
				return fmt.Sprintf("replica %v: durable entry %d diverges from the committed log", id, e.Index)
			}
		}
	}
	return ""
}

// persistFor adapts the durable-store map to sm.Config.Persist. The
// indirection matters: a missing entry must yield a nil INTERFACE (the
// "persistence off" fast path), not a non-nil interface wrapping a nil
// *store.Memory.
func persistFor(m map[types.ProcID]*store.Memory, id types.ProcID) store.Persister {
	if p := m[id]; p != nil {
		return p
	}
	return nil
}

// RunKV executes the spec.
func RunKV(spec KVSpec) (*KVResult, error) {
	p := spec.Params
	if err := p.Validate(true); err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	if len(spec.Byzantine) > p.T {
		return nil, fmt.Errorf("runner: %d Byzantine processes exceed t=%d", len(spec.Byzantine), p.T)
	}
	if len(spec.Commands) == 0 {
		return nil, fmt.Errorf("runner: empty KV workload")
	}
	if spec.Compact && spec.SnapshotEvery <= 0 {
		return nil, fmt.Errorf("runner: Compact requires SnapshotEvery > 0")
	}
	if spec.Log.AutoCompactLag > 0 {
		// Snapshot-driven compaction is the only safe mode under a state
		// machine: AutoCompactLag trims entries without a covering
		// snapshot, which would leave Recover with a gap and poison the
		// applier.
		return nil, fmt.Errorf("runner: AutoCompactLag is a pure-log knob; KV runs compact via SnapshotEvery+Compact")
	}
	if spec.CompactKeep <= 0 {
		spec.CompactKeep = 4
	}
	if spec.Transfer && spec.SnapshotEvery <= 0 {
		return nil, fmt.Errorf("runner: Transfer requires SnapshotEvery > 0 (peers serve snapshots)")
	}
	if len(spec.CrashRestart) > 0 && !spec.Durable {
		return nil, fmt.Errorf("runner: CrashRestart requires Durable (the reboot reads the store)")
	}
	if spec.RestartDelay <= 0 {
		spec.RestartDelay = 25 * time.Millisecond
	}
	encoded := make([]types.Value, len(spec.Commands))
	distinct := make(map[types.Value]struct{}, len(spec.Commands))
	for i, c := range spec.Commands {
		encoded[i] = c.Encode()
		distinct[encoded[i]] = struct{}{}
	}
	w, err := harness.New(harness.Config{
		Params:   p,
		Topology: spec.Topology,
		Policy:   spec.Policy,
		Adv:      spec.Adv,
		FIFO:     spec.FIFO,
		Seed:     spec.Seed,
		Record:   spec.Record,
		BotOK:    true,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}

	res := &KVResult{
		LogResult: LogResult{
			Logs:    make(map[types.ProcID][]log.Entry),
			Engines: make(map[types.ProcID]*log.Engine),
		},
		Stores:         make(map[types.ProcID]*kv.Store),
		Appliers:       make(map[types.ProcID]*sm.Applier),
		StateDigests:   make(map[types.ProcID][32]byte),
		SnapshotLog:    make(map[types.ProcID][]sm.Snapshot),
		RecoverErrs:    make(map[types.ProcID]error),
		Transfers:      make(map[types.ProcID]int),
		TransferServed: make(map[types.ProcID]int),
		Covered:        make(map[types.ProcID]int),
		Distinct:       len(distinct),
		Durables:       make(map[types.ProcID]*store.Memory),
		Boots:          make(map[types.ProcID]sm.BootStats),
		BootErrs:       make(map[types.ProcID]error),
	}
	if spec.Trace != nil {
		res.Tracers = make(map[types.ProcID]*xtrace.Tracer)
		res.Stages = obs.NewStageMetrics(spec.Obs, "")
	}
	var submitAt map[types.Value]types.Time
	if spec.Obs != nil {
		res.CommitLatency = obs.NewCommitLatency(spec.Obs)
		submitAt = make(map[types.Value]types.Time, len(distinct))
		for k, c := range encoded {
			if _, dup := submitAt[c]; !dup { // retries keep the first submit time
				submitAt[c] = types.Time(types.Duration(k) * spec.SubmitEvery)
			}
		}
	}
	trs := make(map[types.ProcID]*sm.Transfer)
	// Per-replica distinct-coverage sets live OUTSIDE the incarnation
	// closures: a crash-restarted replica keeps counting from where its
	// dead incarnation left off (coverage is a property of the process,
	// not of one boot).
	seenBy := make(map[types.ProcID]map[types.Value]struct{})
	// buildReplica assembles one incarnation of a correct replica's full
	// stack (kv.Store → sm.Applier → log.Engine → optional sm.Transfer).
	// The initial incarnation (reboot=false) registers telemetry and
	// tracing; a rebooted one (reboot=true) instead restores its durable
	// store through sm.Boot before the engine starts, and skips metric
	// registration (the registry already holds this replica's bundles).
	// Construction failures go to fail and the incarnation stays silent.
	buildReplica := func(id types.ProcID, reboot bool, fail func(error)) harness.Behavior {
		return func(env proto.Env) proto.Handler {
			silent := proto.HandlerFunc(func(types.ProcID, proto.Message) {})
			reg, trSpec := spec.Obs, spec.Trace
			if reboot {
				reg, trSpec = nil, nil
			}
			machine := kv.NewStore()
			var labels string
			if reg != nil {
				labels = procLabel(id)
				machine.SetMetrics(obs.NewKVMetrics(reg, labels))
			}
			var tracer *xtrace.Tracer
			if trSpec != nil {
				tracer = xtrace.New(xtrace.Config{
					Proc:     id,
					Now:      env.Now,
					Recorder: xtrace.NewRecorder(trSpec.cap()),
					Stages:   res.Stages,
				})
				res.Tracers[id] = tracer
			}
			var eng *log.Engine
			app, err := sm.New(sm.Config{
				Machine:       machine,
				SnapshotEvery: spec.SnapshotEvery,
				RefreshEvery:  spec.SnapshotRefresh,
				Persist:       persistFor(res.Durables, id),
				Metrics:       obs.NewSMMetrics(reg, labels),
				Tracer:        tracer,
				// The retained-suffix capture rides every snapshot so this
				// replica can serve complete transfer payloads (snapshot +
				// dedup window); cheap (CompactKeep-sized) when compaction
				// is on.
				RetainedEntries: func() []log.Entry {
					if eng == nil {
						return nil
					}
					return eng.Entries()
				},
				OnSnapshot: func(s sm.Snapshot) {
					res.SnapshotLog[id] = append(res.SnapshotLog[id],
						sm.Snapshot{Index: s.Index, Instance: s.Instance, Digest: s.Digest})
					env.Trace().Emit(trace.Event{
						At: env.Now(), Kind: trace.KindKVSnapshot, Proc: id,
						Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", s.Index, s.Instance, s.Digest[:8]),
					})
					if spec.Compact && eng != nil {
						eng.Compact(s.Instance - spec.CompactKeep)
					}
				},
			})
			if err != nil {
				fail(err)
				return silent
			}
			cfg := spec.Log
			cfg.Env = env
			cfg.Target = spec.Target
			cfg.Tracer = tracer
			if reg != nil {
				cfg.Metrics = obs.NewLogMetrics(reg, labels)
				cfg.Engine.RBMetrics = obs.NewRBMetrics(reg, labels)
			}
			seen := seenBy[id]
			if seen == nil {
				seen = make(map[types.Value]struct{}, len(distinct))
				seenBy[id] = seen
			}
			cfg.OnCommit = func(e log.Entry) {
				res.Logs[id] = append(res.Logs[id], e)
				app.OnCommit(e)
				// Default stop rule: close once every distinct workload
				// command committed. Duplicate re-commits (possible after
				// compaction forgets the content dedup) and forged
				// commands from Byzantine batches don't count toward it —
				// a deterministic function of the applied prefix, so
				// instance starts stay symmetric.
				if _, workload := distinct[e.Cmd]; !workload {
					return
				}
				if _, dup := seen[e.Cmd]; dup {
					return
				}
				seen[e.Cmd] = struct{}{}
				res.Covered[id] = len(seen)
				if res.CommitLatency != nil {
					res.CommitLatency.Observe(int64(env.Now() - submitAt[e.Cmd]))
				}
				if spec.Target <= 0 && len(seen) >= len(distinct) && eng != nil {
					eng.Close()
				}
			}
			cfg.OnApply = app.OnApply
			var tr *sm.Transfer
			if spec.Transfer {
				// Late-bound: tr exists only after the engine it wraps.
				cfg.OnDroppedAhead = func(i types.Instance) {
					if tr != nil {
						tr.OnDroppedAhead(i)
					}
				}
			}
			eng, err = log.New(cfg)
			if err != nil {
				fail(err)
				return silent
			}
			if reboot {
				// Restore from "disk" exactly as a live node restart would:
				// install the stamped snapshot, replay the WAL suffix, and
				// resume the ordering layer at the durable boundary. No peer
				// is asked for anything.
				st, berr := sm.Boot(res.Durables[id], app, eng)
				if berr != nil {
					fail(berr)
					return silent
				}
				res.Boots[id] = st
				env.Trace().Emit(trace.Event{
					At: env.Now(), Kind: trace.KindKVRecover, Proc: id,
					Aux: fmt.Sprintf("boot replayed-to=%d boundary=%v", app.Applied(), st.Boundary),
				})
			}
			handler := proto.Handler(eng)
			if spec.Transfer {
				tr, err = sm.NewTransfer(sm.TransferConfig{
					Env:        env,
					Applier:    app,
					Log:        eng,
					Next:       eng,
					RetryEvery: spec.TransferRetry,
					StallProbe: spec.TransferProbe,
					Metrics:    obs.NewTransferMetrics(reg, labels),
				})
				if err != nil {
					fail(err)
					return silent
				}
				trs[id] = tr
				handler = tr
			}
			res.Engines[id] = eng
			res.Stores[id] = machine
			res.Appliers[id] = app
			// Submit the workload — on a reboot, re-submit it in full
			// relative to the restart instant: the crashed incarnation's
			// submit timers died with it, commit dedup drops what already
			// landed, and anything that was pending gets a second chance.
			for k, c := range encoded {
				c := c
				env.SetTimer(types.Duration(k)*spec.SubmitEvery, func() { _ = eng.Submit(c) })
			}
			if at, ok := spec.RecoverAt[id]; ok && !reboot {
				env.SetTimer(types.Duration(at), func() {
					if err := app.Recover(eng.Entries()); err != nil {
						res.RecoverErrs[id] = err
						return
					}
					env.Trace().Emit(trace.Event{
						At: env.Now(), Kind: trace.KindKVRecover, Proc: id,
						Aux: fmt.Sprintf("replayed-to=%d", app.Applied()),
					})
				})
			}
			env.SetTimer(0, func() {
				if err := eng.Start(); err != nil {
					fail(err)
				}
			})
			return handler
		}
	}
	for _, id := range p.AllProcs() {
		id := id
		if b, ok := spec.Byzantine[id]; ok {
			if err := w.SetBehavior(id, b); err != nil {
				return nil, fmt.Errorf("runner: %w", err)
			}
			continue
		}
		res.Correct = append(res.Correct, id)
		if spec.Durable {
			res.Durables[id] = store.NewMemory()
		}
		var engErr error
		err := w.SetBehavior(id, buildReplica(id, false, func(e error) {
			if engErr == nil {
				engErr = e
			}
		}))
		if err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
		if engErr != nil {
			return nil, fmt.Errorf("runner: kv replica %v: %w", id, engErr)
		}
		wireRetirer(w, id, res.Engines[id])
		wireObs(w, id, spec.Obs)
	}
	// Crash-restart choreography: power the process off at its mapped
	// time, reboot it from its durable store RestartDelay later. The
	// timers are scheduled directly on the scheduler (NOT through the
	// victim's env — the kill would fence its own restart), in sorted
	// process order so the event sequence is seed-deterministic.
	if len(spec.CrashRestart) > 0 {
		ids := make([]types.ProcID, 0, len(spec.CrashRestart))
		for id := range spec.CrashRestart {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			id := id
			if res.Durables[id] == nil {
				return nil, fmt.Errorf("runner: CrashRestart process %v is not a correct replica", id)
			}
			at := types.Duration(spec.CrashRestart[id])
			w.Sched.After(at, func() { w.Kill(id) })
			w.Sched.After(at+spec.RestartDelay, func() {
				err := w.SetBehavior(id, buildReplica(id, true, func(e error) {
					if res.BootErrs[id] == nil {
						res.BootErrs[id] = e
					}
				}))
				if err != nil && res.BootErrs[id] == nil {
					res.BootErrs[id] = err
				}
				wireRetirer(w, id, res.Engines[id])
			})
		}
	}

	res.Stop = w.Run(spec.Deadline, spec.MaxEvents)
	res.End = w.Sched.Now()
	res.Events = w.Sched.Executed
	res.Compactions = w.Sched.Compactions
	res.Messages = w.Net.Sent()
	res.Duplicates = w.DroppedDuplicates()
	res.Log = w.Log
	for _, id := range res.Correct {
		if eng := res.Engines[id]; eng != nil && eng.Err() != nil {
			return nil, fmt.Errorf("runner: kv replica %v: %w", id, eng.Err())
		}
		if app := res.Appliers[id]; app != nil {
			res.StateDigests[id] = app.StateDigest()
			if err := app.Err(); err != nil && res.RecoverErrs[id] == nil {
				// A poisoned applier (failed Recover after state mutation)
				// stopped applying; surface it as a recovery failure.
				res.RecoverErrs[id] = err
			}
		}
		if tr := trs[id]; tr != nil {
			res.Transfers[id] = tr.Installs()
			res.TransferServed[id] = tr.Served()
		}
	}
	return res, nil
}
