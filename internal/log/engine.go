package log

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/xtrace"
)

// Entry is one committed command of the replicated log.
type Entry struct {
	// Index is the 0-based position in the committed command sequence.
	Index int
	// Instance is the consensus instance whose decided batch carried the
	// command.
	Instance types.Instance
	// Cmd is the command itself.
	Cmd types.Value
}

// Config assembles a log Engine.
type Config struct {
	// Env is the process environment (simulation or real-time). The
	// engine stamps each instance's traffic with its instance number via
	// a wrapping Env, so Env itself stays instance-agnostic.
	Env proto.Env
	// Engine carries the per-instance protocol knobs (K, TimeUnit,
	// Timeout, Mode, Relay, MaxRounds). Env, OnDecide and BotMode are
	// overridden per instance; BotMode is always on (see package doc).
	Engine core.Config
	// BatchSize caps the commands per proposed batch (default 16).
	BatchSize int
	// Pipeline bounds the instances in flight, W (default 4): the engine
	// opens instance i only while i < applied+W. Slots open on demand,
	// not eagerly — an instance opens when a pending command rides in
	// none of this replica's undecided batches, or when a peer already
	// opened an instance inside the window (see fill) — so an idle
	// replica runs no instances at all.
	Pipeline int
	// MaxLead bounds how far past the local apply point an inbound
	// message's instance may be before it is dropped (default 256). It
	// is a flow-control/memory guard against Byzantine peers naming
	// absurd instances. The tradeoff is liveness for a severely lagging
	// replica: a peer's lead is bounded relative to the PEER's apply
	// point, not ours, so if the rest of the cluster runs more than
	// MaxLead instances ahead of us (possible under long asynchrony,
	// since n−t quorums exclude us), their protocol messages for those
	// instances are dropped and never resent, and we cannot commit past
	// that point on our own. Catching such a replica up needs state
	// transfer: OnDroppedAhead surfaces the pressure, sm.Transfer fetches
	// a peer snapshot, and InstallSnapshot resumes consensus from its
	// boundary. Target-bounded runs without a transfer layer are
	// unaffected in practice when MaxLead exceeds the total instance
	// count.
	MaxLead types.Instance
	// OnDroppedAhead, if non-nil, fires for every message the MaxLead
	// guard drops, with the instance the message named. Persistent fire
	// at instances far past `applied` is the lag signal: the cluster has
	// outrun this replica and (after compaction retires the peers' echo
	// service) replay can no longer close the gap. The snapshot-transfer
	// layer (sm.Transfer) turns this pressure into a fetch trigger. The
	// hook must not call back into the engine.
	OnDroppedAhead func(i types.Instance)
	// Target stops the engine from starting new instances once this many
	// commands committed (0 = unlimited; use Close). All correct
	// processes must configure the same Target: the stop rule is a
	// deterministic function of the applied prefix, so every correct
	// replica closes at the same point. Pacing (see Pipeline) already
	// stops an engine with no work from opening instances; Target only
	// matters for runs that must stop while peers still send work.
	Target int
	// OnCommit, if non-nil, is called for every committed command, in
	// log order.
	OnCommit func(e Entry)
	// OnApply, if non-nil, is called after each instance is applied (all
	// its commits delivered), with the number of entries it contributed.
	// The state-machine layer (internal/sm) drives its snapshot cadence
	// from this hook; snapshots at instance boundaries are what make log
	// compaction exact.
	OnApply func(i types.Instance, newly int)
	// Metrics, if non-nil, is the engine's telemetry bundle
	// (obs.NewLogMetrics). Instruments are passive pre-registered atomic
	// cells: increments never schedule events or alter protocol behavior,
	// so an observed run stays schedule-identical to an unobserved one.
	Metrics *obs.LogMetrics
	// Tracer, if non-nil, attaches causal command tracing
	// (internal/xtrace): span emission at submission, batch formation,
	// instance proposal, commit and decide, propagated into every
	// per-instance consensus engine (RB phase spans) and the coalescing
	// relay (flush spans). Passive like Metrics — a traced run stays
	// schedule-identical to an untraced one.
	Tracer *xtrace.Tracer
	// CanonicalBatches, when set, makes batch selection a deterministic
	// function of the pending command SET instead of its arrival order:
	// nextBatch sorts the pending queue by content before taking up to
	// BatchSize commands. Live clusters need this for liveness — the
	// client-broadcast model only makes progress when correct replicas
	// propose identical batch ENCODINGS, and over real transports the
	// same forwarded commands arrive at each replica in a different
	// order, so FIFO batches never converge and every instance decides ⊥
	// while the commands recycle forever. Sorting restores convergence:
	// once the forwards propagate, identical pending sets produce
	// identical batches. Canonical mode also drops the in-flight
	// exclusion, so pipelined instances propose overlapping batches (see
	// nextBatch); apply-time content dedup keeps the committed sequence
	// exactly-once. Off by default: simulation runs submit
	// symmetrically (identical FIFO everywhere), and the digest-pinned
	// scenario fixtures depend on submission-order batches.
	CanonicalBatches bool
	// Coalesce enables the reliable-broadcast coalescing relay
	// (rb.Relay): every ECHO/READY the replica originates within one
	// flush quantum — across all pipelined instances — rides a single
	// MsgRBVector frame per link, with large values referenced by content
	// hash after the INIT carried them (see docs/rb-coalescing.md). This
	// is the message-complexity fast path for large n. Off by default:
	// coalescing reschedules the echo/ready traffic, so the digest-pinned
	// legacy fixtures must run without it; live clusters and the
	// rb-coalesce-* scenarios turn it on.
	Coalesce bool
	// CoalesceQuantum overrides the relay flush period
	// (default rb.DefaultQuantum). Only meaningful with Coalesce.
	CoalesceQuantum types.Duration
	// AutoCompactLag, when > 0, compacts instance i as soon as instance
	// i+AutoCompactLag is applied — the "retire wholesale when an instance
	// commits" mode for pure log runs that keep no snapshots. 0 disables
	// it (the default: compaction changes which late messages still get
	// echo service, hence the message schedule, so digest-pinned runs must
	// leave it off). State-machine runs should compact via snapshots
	// (sm.Applier + Compact) instead, so recovery always has a snapshot
	// covering the trimmed prefix.
	AutoCompactLag types.Instance
}

// Retirer releases per-instance message-dedup state below an instance
// boundary. proto.Node implements it; the hosting runtime wires its node
// to the engine with SetRetirer so Compact can retire dedup sub-maps in
// the same stroke as the engine's own per-instance state.
type Retirer interface {
	RetireInstancesBefore(floor types.Instance)
}

// Engine is one correct replica of the replicated log. It implements
// proto.Handler: a runtime feeds it deduplicated messages and it
// demultiplexes them to per-instance consensus engines.
//
// Like the core engine it is single-threaded by design: all calls
// (OnMessage, Start, Submit) must come from the hosting runtime's event
// loop or simulation callbacks.
type Engine struct {
	cfg Config

	insts   map[types.Instance]*instance
	decided map[types.Instance]types.Value // decided, not yet applied

	nextStart types.Instance // next instance this process will propose in
	applied   types.Instance // instances [0, applied) are applied
	peerMax   types.Instance // highest instance a peer's message opened (-1: none)

	pending    []types.Value // submitted, uncommitted commands (FIFO)
	pendingSet map[types.Value]struct{}
	inFlight   map[types.Value]int // commands inside own undecided batches
	committed  map[types.Value]struct{}
	entries    []Entry // retained suffix: entries [entriesBase, Committed())

	floor       types.Instance // instances < floor are compacted away
	entriesBase int            // entries below this index were trimmed
	retired     int            // instance engines released by Compact/Install
	installs    int            // snapshots installed via InstallSnapshot
	retirer     Retirer        // optional dedup retirement hook

	noOps      int    // applied instances that committed nothing new
	dropsAhead uint64 // messages dropped by the MaxLead guard
	dropsBelow uint64 // messages dropped for compacted instances
	running    bool
	closed     bool
	resumed    bool  // engine was realigned from durable state (Resume)
	err        error // first per-instance construction error, if any

	relay *rb.Relay // coalescing relay (nil unless cfg.Coalesce)
}

var _ proto.Handler = (*Engine)(nil)

// instance pairs one consensus engine with its instance-scoped state.
type instance struct {
	eng      *core.Engine
	ownBatch []types.Value // commands this process proposed (until decided)
	proposed bool
}

// New builds a log engine (idle until Start).
func New(cfg Config) (*Engine, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("log: nil Env")
	}
	p := cfg.Env.Params()
	if err := p.Validate(true); err != nil {
		return nil, fmt.Errorf("log: %w", err)
	}
	if cfg.Engine.K < 0 || cfg.Engine.K > p.T {
		return nil, fmt.Errorf("log: k must be in [0, t], got %d", cfg.Engine.K)
	}
	if cfg.Engine.TimeUnit <= 0 && cfg.Engine.Timeout == nil {
		cfg.Engine.TimeUnit = 10 * time.Millisecond // default EA timer unit
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 4
	}
	if cfg.MaxLead <= 0 {
		cfg.MaxLead = 256
	}
	if cfg.MaxLead < types.Instance(cfg.Pipeline)+1 {
		cfg.MaxLead = types.Instance(cfg.Pipeline) + 1
	}
	l := &Engine{
		cfg:        cfg,
		insts:      make(map[types.Instance]*instance),
		decided:    make(map[types.Instance]types.Value),
		pendingSet: make(map[types.Value]struct{}),
		inFlight:   make(map[types.Value]int),
		committed:  make(map[types.Value]struct{}),
		peerMax:    -1,
	}
	if cfg.Coalesce {
		l.relay = rb.NewRelay(rb.RelayConfig{
			Env:     cfg.Env,
			Sink:    l.dispatch,
			Quantum: cfg.CoalesceQuantum,
			Metrics: cfg.Engine.RBMetrics,
			Tracer:  cfg.Tracer,
			// The dispatch guards, as a predicate: the relay allocates
			// state (value cache, dedup bitmaps, parking lot) only for
			// traffic dispatch would accept, so instances a Byzantine
			// peer fabricates far ahead of the pipeline cannot grow
			// relay memory — they are dropped (and counted against the
			// lag signal) exactly like loose messages.
			Window: func(i types.Instance) bool {
				return i >= l.floor && i < l.applied+l.cfg.MaxLead
			},
		})
	}
	return l, nil
}

// Start opens the pipeline: from here on the engine proposes in
// instances as demand appears (see fill). Submit may be called before or
// after Start; commands submitted before are carried by the first
// batches, and peer instances that arrived before Start are joined now.
func (l *Engine) Start() error {
	if l.running {
		return fmt.Errorf("log: Start called twice")
	}
	l.running = true
	l.fill()
	return l.err
}

// Submit enqueues a client command for ordering. Commands are identified
// by content: re-submitting a pending or committed command is a no-op
// (idempotent client retries). The reserved ⊥ value is rejected.
func (l *Engine) Submit(cmd types.Value) error {
	if cmd == types.BotValue {
		return fmt.Errorf("log: cannot submit the reserved ⊥ value")
	}
	if _, dup := l.committed[cmd]; dup {
		return nil
	}
	if _, dup := l.pendingSet[cmd]; dup {
		return nil
	}
	l.pending = append(l.pending, cmd)
	l.pendingSet[cmd] = struct{}{}
	l.cfg.Tracer.OnSubmit(cmd)
	l.fill()
	return nil
}

// Close stops the engine from starting new instances. In-flight instances
// keep running (they may still commit), and the engine keeps serving the
// reliable-broadcast layers of old instances for slower peers.
func (l *Engine) Close() { l.closed = true }

// SetRetirer wires the message-dedup layer into compaction: Compact will
// call r.RetireInstancesBefore with the same floor it applies to its own
// per-instance state. Set once, before Start.
func (l *Engine) SetRetirer(r Retirer) { l.retirer = r }

// OnMessage implements proto.Handler: demultiplex to the instance engine.
// With coalescing on, the relay fronts the dispatch — it consumes its
// carrier frames (unpacking each vector entry back into the loose
// message it replaces and feeding it to dispatch, where the MaxLead and
// floor guards apply per entry exactly as they would per loose message)
// and passively learns INIT values for the echo-by-hash cache.
func (l *Engine) OnMessage(from types.ProcID, m proto.Message) {
	if l.relay != nil {
		if l.relay.Inbound(from, m) {
			return
		}
	} else {
		switch m.Kind {
		case proto.MsgRBVector, proto.MsgRBPull, proto.MsgRBPullResp:
			// Coalescing off: the carrier kinds have no consumer here.
			// They bypass proto.Node's first-message rule and carry
			// Instance 0, so falling through would route them —
			// undeduplicated — into a live core.Engine instance; drop
			// them instead (mixed clusters, Byzantine senders).
			return
		}
	}
	l.dispatch(from, m)
}

// dispatch routes one (possibly relay-unpacked) message by instance.
func (l *Engine) dispatch(from types.ProcID, m proto.Message) {
	i := m.Instance
	if i < 0 || i >= l.applied+l.cfg.MaxLead {
		l.dropsAhead++
		if m := l.cfg.Metrics; m != nil {
			m.DroppedAhead.Inc()
		}
		if l.cfg.OnDroppedAhead != nil && i > 0 {
			l.cfg.OnDroppedAhead(i)
		}
		return
	}
	if i < l.floor {
		// The instance was compacted: its state is gone and its outcome is
		// already reflected in the applied prefix (and any snapshot).
		l.dropsBelow++
		if m := l.cfg.Metrics; m != nil {
			m.DroppedRetired.Inc()
		}
		return
	}
	if inst, ok := l.insts[i]; ok {
		inst.eng.OnMessage(from, m)
		return
	}
	inst := l.getInstance(i)
	if inst == nil {
		return
	}
	inst.eng.OnMessage(from, m)
	if i >= l.nextStart {
		// A peer opened an instance this replica has not: join it (and
		// every slot below it) once it lies inside the window. An
		// instance decides only with n−t proposers, so a replica that
		// opens one relies on every correct peer following suit.
		l.peerMax = max(l.peerMax, i)
		l.fill()
	}
}

// getInstance lazily builds the consensus engine of instance i. Engines
// are created on first contact — our own proposal or a faster peer's
// message — and kept for the lifetime of the log so laggards can still
// obtain reliable-broadcast echoes of old instances.
func (l *Engine) getInstance(i types.Instance) *instance {
	if inst, ok := l.insts[i]; ok {
		return inst
	}
	// Gap backfill after a durable restart (Resume): a peer message for
	// an instance we already applied but hold no engine for means a
	// restarted replica is re-running instances it never finished.
	// Participating reactively is not enough — a consensus instance only
	// decides with n−t PROPOSING processes — so propose an empty batch
	// into it. Our own state is untouched (decisions below the applied
	// boundary are discarded in onInstanceDecided); the proposal exists
	// purely to give restarted peers their quorum. Gated on resumed:
	// outside durable restarts this path is unreachable (engines for
	// applied instances always exist until compacted, and compacted ones
	// are dropped before dispatch), and the gate keeps the pre-existing
	// digest-pinned schedules byte-identical.
	backfill := l.resumed && i < l.applied
	ecfg := l.cfg.Engine
	base := l.cfg.Env
	if l.relay != nil {
		// The relay sits between the instance envs and the real
		// environment, so every instance's ECHO/READY broadcasts land in
		// the shared coalescing buffer (that sharing IS the
		// cross-instance batching).
		base = l.relay
	}
	ecfg.Env = &instEnv{base: base, id: i}
	ecfg.BotMode = true
	ecfg.Tracer = l.cfg.Tracer
	ecfg.TraceInstance = i
	ecfg.OnDecide = func(v types.Value) { l.onInstanceDecided(i, v) }
	eng, err := core.New(ecfg)
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("log: instance %v: %w", i, err)
		}
		return nil
	}
	inst := &instance{eng: eng}
	l.insts[i] = inst
	if backfill {
		inst.proposed = true
		if err := eng.Propose(EncodeBatch(nil)); err != nil && l.err == nil {
			l.err = fmt.Errorf("log: backfill instance %v: %w", i, err)
		}
	}
	return inst
}

// fill is the pacing rule: it opens instance nextStart while the slot
// lies inside the window (nextStart < applied+Pipeline) and either
//
//	(a) some pending command rides in none of this replica's undecided
//	    batches, or
//	(b) a peer already opened an instance in [nextStart, applied+Pipeline).
//
// Rule (b) preserves the paper's precondition that an instance decides
// once n−t processes propose in it: a correct replica that opens an
// instance reaches every correct peer, and each of them joins. A
// Byzantine peer can at most force the Pipeline slots open, which is
// what an always-open pipeline did unconditionally. Without either rule
// the engine stays idle — no empty instances, no WAL marks for them.
func (l *Engine) fill() {
	if l.nextStart < l.applied {
		// Instances this replica never opened were decided without it
		// (a passive engine past the window, or n−t peers' quorum).
		l.nextStart = l.applied
	}
	for l.running && !l.closed && l.nextStart < l.applied+types.Instance(l.cfg.Pipeline) &&
		(l.peerInWindow() || l.hasUnbatched()) {
		l.startNext()
	}
}

// peerInWindow reports whether a peer opened an instance in
// [nextStart, applied+Pipeline): every engine at or past nextStart was
// built by a peer's message, since this replica builds its own only at
// nextStart. A peer instance past the window stays passive until the
// window slides over it.
func (l *Engine) peerInWindow() bool {
	end := min(l.peerMax+1, l.applied+types.Instance(l.cfg.Pipeline))
	for i := l.nextStart; i < end; i++ {
		if _, ok := l.insts[i]; ok {
			return true
		}
	}
	return false
}

// hasUnbatched reports whether a pending command rides in none of this
// replica's undecided batches. The scan stops at the first such command,
// so it costs at most the number of distinct in-flight commands.
func (l *Engine) hasUnbatched() bool {
	for _, c := range l.pending {
		if l.inFlight[c] == 0 {
			return true
		}
	}
	return false
}

// startNext proposes in the next instance of the pipeline.
func (l *Engine) startNext() {
	i := l.nextStart
	l.nextStart++
	inst := l.getInstance(i)
	if inst == nil {
		return
	}
	batch := l.nextBatch()
	inst.ownBatch = batch
	inst.proposed = true
	for _, c := range batch {
		l.inFlight[c]++
	}
	if tr := l.cfg.Tracer; tr != nil {
		tr.OnPropose(i)
		for _, c := range batch {
			tr.OnBatched(c, i)
		}
	}
	if m := l.cfg.Metrics; m != nil {
		m.Proposals.Inc()
		m.ProposedCommands.Add(uint64(len(batch)))
		l.syncGauges(m)
	}
	if err := inst.eng.Propose(EncodeBatch(batch)); err != nil && l.err == nil {
		l.err = fmt.Errorf("log: instance %v: %w", i, err)
	}
}

// syncGauges refreshes the live-level gauges; callers pass the non-nil
// bundle they already loaded.
func (l *Engine) syncGauges(m *obs.LogMetrics) {
	m.AppliedInstances.Set(int64(l.applied))
	m.PendingCommands.Set(int64(len(l.pending)))
	m.PipelineDepth.Set(int64(l.nextStart - l.applied))
}

// nextBatch selects up to BatchSize pending commands. In FIFO mode it
// skips commands already riding in one of this process's undecided
// batches, partitioning the queue across the pipeline. With
// CanonicalBatches the selection (and the batch's internal order) is
// taken over the sorted pending set and the in-flight exclusion is
// dropped: the exclusion would make the batch a function of local
// decide timing (which instance got which partition), so replicas
// drift out of phase and propose mismatched batches forever. Instead
// every undecided instance carries the same canonical head-of-queue
// batch; once one of them commits it, apply-time content dedup drops
// the copies riding in the others.
func (l *Engine) nextBatch() []types.Value {
	queue := l.pending
	if l.cfg.CanonicalBatches && len(queue) > 1 {
		queue = append([]types.Value(nil), l.pending...)
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	}
	var batch []types.Value
	for _, c := range queue {
		if !l.cfg.CanonicalBatches && l.inFlight[c] > 0 {
			continue
		}
		batch = append(batch, c)
		if len(batch) >= l.cfg.BatchSize {
			break
		}
	}
	return batch
}

// onInstanceDecided records instance i's decision and applies any newly
// contiguous prefix.
func (l *Engine) onInstanceDecided(i types.Instance, v types.Value) {
	l.cfg.Tracer.OnDecide(i)
	if i < l.applied {
		// A backfilled gap instance (see getInstance) re-decided below our
		// applied boundary: its outcome is already reflected in our state,
		// and buffering it would only leak. Unreachable outside durable
		// restarts.
		return
	}
	l.decided[i] = v
	if inst := l.insts[i]; inst != nil {
		for _, c := range inst.ownBatch {
			if l.inFlight[c]--; l.inFlight[c] <= 0 {
				delete(l.inFlight, c)
			}
		}
		inst.ownBatch = nil
	}
	l.tryApply()
}

// tryApply applies decided instances in instance order. Applying is where
// commands commit: every correct process applies the same decided batches
// in the same order and runs the same dedup, so the committed command
// sequences are identical (total order).
func (l *Engine) tryApply() {
	for {
		v, ok := l.decided[l.applied]
		if !ok {
			if m := l.cfg.Metrics; m != nil {
				l.syncGauges(m)
			}
			return
		}
		delete(l.decided, l.applied)
		i := l.applied
		l.applied++
		newly := 0
		if v != types.BotValue {
			if cmds, err := DecodeBatch(v); err == nil {
				for _, c := range cmds {
					if _, dup := l.committed[c]; dup {
						continue
					}
					l.committed[c] = struct{}{}
					l.removePending(c)
					e := Entry{Index: l.entriesBase + len(l.entries), Instance: i, Cmd: c}
					l.entries = append(l.entries, e)
					newly++
					if m := l.cfg.Metrics; m != nil {
						m.Committed.Inc()
					}
					l.cfg.Tracer.OnCommitted(c, i)
					if l.cfg.OnCommit != nil {
						l.cfg.OnCommit(e)
					}
				}
			}
		}
		if newly == 0 {
			l.noOps++
			if m := l.cfg.Metrics; m != nil {
				m.NoOps.Inc()
			}
		}
		if l.cfg.OnApply != nil {
			// The hook may snapshot and call Compact re-entrantly; Compact
			// touches only state below the applied boundary, so the loop's
			// own bookkeeping (decided, applied) stays coherent.
			l.cfg.OnApply(i, newly)
		}
		if lag := l.cfg.AutoCompactLag; lag > 0 && l.applied > lag {
			l.Compact(l.applied - lag)
		}
		if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
			l.closed = true
		}
		l.fill()
	}
}

// Compact retires every instance below floor wholesale: the per-instance
// consensus engines (with all their RB/CB/AC/EA bookkeeping), the
// committed-entry prefix those instances produced, the commit-dedup
// entries of the trimmed commands, and — via the Retirer — the message
// dedup sub-maps. floor is clamped to the applied boundary: unapplied
// instances are never compacted.
//
// Dropping commit-dedup entries means a command committed before floor
// can commit AGAIN if a client (or Byzantine proposer) re-submits it:
// bounded memory moves the exactly-once obligation up to the state
// machine's session layer (internal/kv), which is the classic SMR
// arrangement. Total order is unaffected: compaction instants are a
// deterministic function of the applied prefix, so every correct replica
// trims identical state at identical prefix points.
//
// Safety of retiring instance engines mid-run: an engine is only retired
// after this replica applied its decision, by which point the replica has
// broadcast every contribution the instance will ever need from it (a
// decided core engine halts its round loop and has already RB-broadcast
// DECIDE). Laggards therefore still receive all previously sent traffic;
// what they lose is the retired replica's future echo service, which a
// snapshot-based state transfer — Recover on the sm layer — replaces.
//
// Returns the number of instance engines released.
func (l *Engine) Compact(floor types.Instance) int {
	if floor > l.applied {
		floor = l.applied
	}
	if floor <= l.floor {
		return 0
	}
	released := 0
	for i := l.floor; i < floor; i++ {
		if _, ok := l.insts[i]; ok {
			delete(l.insts, i)
			released++
		}
	}
	trim := 0
	for trim < len(l.entries) && l.entries[trim].Instance < floor {
		delete(l.committed, l.entries[trim].Cmd)
		trim++
	}
	if trim > 0 {
		// Copy the suffix into a fresh slice so the trimmed prefix's
		// backing array (and its command strings) become collectable.
		rest := make([]Entry, len(l.entries)-trim)
		copy(rest, l.entries[trim:])
		l.entries = rest
		l.entriesBase += trim
	}
	l.floor = floor
	l.retired += released
	if m := l.cfg.Metrics; m != nil {
		m.Compactions.Inc()
		m.RetiredInstances.Add(uint64(released))
	}
	if l.retirer != nil {
		l.retirer.RetireInstancesBefore(floor)
	}
	if l.relay != nil {
		l.relay.RetireInstancesBefore(floor)
	}
	return released
}

// InstallSnapshot jumps the engine forward to a snapshot boundary
// obtained from a peer: instances [0, boundary) are declared applied
// without local decisions, index is the number of commands the
// snapshot's state already reflects, and retained is the entry suffix
// that traveled with the snapshot — the content-dedup window every
// replica carries forward from that boundary. The state machine itself
// must have been installed FIRST (sm.Applier.Install) — this method only
// realigns the ordering layer.
//
// It is Compact generalized past the apply point: every instance below
// boundary is retired wholesale — undecided local engines are Halted
// (their outcome is already inside the snapshot, and their timers must
// not keep firing), own in-flight batches are released back to pending
// accounting, buffered decisions below the boundary are discarded, the
// local entry log is replaced by the transferred suffix, and the
// message-dedup layer drops everything below the suffix via the Retirer.
//
// Seeding entries and content dedup from the transferred suffix is a
// CORRECTNESS requirement, not bookkeeping: commit/skip decisions are
// part of the replicated state. The peers still hold dedup entries for
// their retained window, so an in-flight instance re-deciding one of
// those commands is skipped by every peer — a receiver installed with an
// empty dedup would commit it, forking the entry streams (and, through
// the session layer's duplicate counters, the state digests). With the
// suffix seeded, the receiver's dedup window — and every future
// compaction instant, which trims it — is byte-for-byte the function of
// the committed prefix it is on every other correct replica.
//
// After the jump the pipeline restarts at the boundary: the window
// refills on demand from there (fill), and peer instances already seen
// past the boundary are joined at once.
// Buffered decisions at or past the boundary then apply normally via
// tryApply.
//
// Errors: boundary must exceed the current apply point (stale snapshots
// are the caller's problem to filter), index must not run behind the
// locally committed count (a snapshot claiming fewer commands than we
// already applied contradicts total order), and the retained suffix must
// be index-contiguous ending at index−1 with ascending instances below
// boundary — defense against forged payload structure.
func (l *Engine) InstallSnapshot(boundary types.Instance, index int, retained []Entry) error {
	if boundary <= l.applied {
		return fmt.Errorf("log: snapshot boundary %v not past applied %v", boundary, l.applied)
	}
	if index < l.Committed() {
		return fmt.Errorf("log: snapshot index %d behind committed %d", index, l.Committed())
	}
	if len(retained) > index {
		return fmt.Errorf("log: %d retained entries exceed snapshot index %d", len(retained), index)
	}
	base := index - len(retained)
	prevInst := types.Instance(-1)
	for k, e := range retained {
		if e.Index != base+k {
			return fmt.Errorf("log: retained entry %d has index %d, want %d", k, e.Index, base+k)
		}
		if e.Instance < prevInst || e.Instance >= boundary {
			return fmt.Errorf("log: retained entry %d instance %v out of order for boundary %v", k, e.Instance, boundary)
		}
		prevInst = e.Instance
	}
	retiredBefore := l.retired
	// Instance-number order, not map order: Halt cancels timers in the
	// shared scheduler, and determinism requires an iteration order that
	// is a pure function of the engine state.
	for i := l.floor; i < boundary; i++ {
		inst, ok := l.insts[i]
		if !ok {
			continue
		}
		for _, c := range inst.ownBatch {
			if l.inFlight[c]--; l.inFlight[c] <= 0 {
				delete(l.inFlight, c)
			}
		}
		inst.eng.Halt()
		delete(l.insts, i)
		l.retired++
	}
	for i := range l.decided {
		if i < boundary {
			delete(l.decided, i)
		}
	}
	// Replace the local entry log (all of it predates the boundary — we
	// had applied less than the snapshot covers) with the transferred
	// suffix, and rebuild content dedup from it.
	for _, e := range l.entries {
		delete(l.committed, e.Cmd)
	}
	l.entries = append([]Entry(nil), retained...)
	l.entriesBase = base
	for _, e := range l.entries {
		l.committed[e.Cmd] = struct{}{}
	}
	// Drop the whole pending queue, not just the retained window: pending
	// commands committed in the SKIPPED prefix are invisible here (their
	// dedup was compacted away everywhere), and re-proposing one would
	// make it commit a second time on every replica — a duplicate entry
	// that double-counts against entry-count stop rules. Nothing is lost:
	// in the client-broadcast model every command was submitted to all
	// replicas, so anything genuinely uncommitted is still pending at the
	// peers, which propose it.
	l.pending = nil
	l.pendingSet = make(map[types.Value]struct{})
	l.applied = boundary
	// The dedup window's floor: the suffix's first instance, exactly
	// where every peer's compaction left ITS floor at this boundary — so
	// future compaction instants (and the dedup trims they perform) stay
	// identical across replicas.
	l.floor = boundary
	if len(l.entries) > 0 {
		l.floor = l.entries[0].Instance
	}
	l.installs++
	if m := l.cfg.Metrics; m != nil {
		m.SnapshotInstalls.Inc()
		m.RetiredInstances.Add(uint64(l.retired - retiredBefore))
	}
	if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
		// The snapshot alone satisfies the stop rule; don't reopen the
		// pipeline just to propose into instances nobody else will run.
		l.closed = true
	}
	if l.retirer != nil {
		l.retirer.RetireInstancesBefore(l.floor)
	}
	if l.relay != nil {
		l.relay.RetireInstancesBefore(l.floor)
	}
	l.fill()
	l.tryApply()
	return nil
}

// Resume realigns a FRESH engine (pre-Start) with durable state
// recovered from a local store — the crash-restart counterpart of
// InstallSnapshot. boundary is the highest instance boundary the store
// marked applied, base the index of the first retained entry, and
// retained the entry suffix (snapshot dedup window plus WAL suffix, in
// index order). The state machine must have been restored FIRST
// (sm.Boot does both); this method only realigns the ordering layer:
// the pipeline will open at boundary, the committed-entry log and
// content dedup are seeded from retained, and the compaction floor is
// set exactly where every peer's floor sits at that boundary.
//
// Unlike InstallSnapshot, retained entries MAY carry instances at or
// past boundary: a crash can land between an entry's append and its
// boundary mark, leaving a partially persisted batch. Those entries
// stay committed (applied ⊇ fsync'd) and seed the dedup, so when the
// cluster re-decides their instance the already-held prefix is skipped
// and only the remainder commits — the entry streams stay identical to
// the peers'. Resume also arms gap backfill (see getInstance): peer
// traffic for instances below boundary that we hold no engine for gets
// an empty proposal, which is what lets a whole cluster restarted from
// drifted boundaries converge without a snapshot transfer.
func (l *Engine) Resume(boundary types.Instance, base int, retained []Entry) error {
	if l.running {
		return fmt.Errorf("log: Resume after Start")
	}
	if l.applied != 0 || l.Committed() != 0 || l.floor != 0 || l.resumed {
		return fmt.Errorf("log: Resume on a non-fresh engine")
	}
	if boundary < 0 || base < 0 {
		return fmt.Errorf("log: negative resume position (%v, %d)", boundary, base)
	}
	prevInst := types.Instance(-1)
	for k, e := range retained {
		if e.Index != base+k {
			return fmt.Errorf("log: resumed entry %d has index %d, want %d", k, e.Index, base+k)
		}
		if e.Instance < prevInst {
			return fmt.Errorf("log: resumed entry %d instance %v out of order", k, e.Instance)
		}
		prevInst = e.Instance
	}
	l.entries = append([]Entry(nil), retained...)
	l.entriesBase = base
	for _, e := range l.entries {
		l.committed[e.Cmd] = struct{}{}
	}
	l.applied = boundary
	l.nextStart = boundary
	l.floor = boundary
	if len(l.entries) > 0 && l.entries[0].Instance < l.floor {
		l.floor = l.entries[0].Instance
	}
	l.resumed = true
	if l.cfg.Target > 0 && l.Committed() >= l.cfg.Target {
		l.closed = true
	}
	if l.retirer != nil {
		l.retirer.RetireInstancesBefore(l.floor)
	}
	if l.relay != nil {
		l.relay.RetireInstancesBefore(l.floor)
	}
	return nil
}

// Resumed reports whether this engine was realigned from durable state.
func (l *Engine) Resumed() bool { return l.resumed }

// removePending deletes c from the pending queue (linear; batches are
// small and the queue holds only uncommitted commands).
func (l *Engine) removePending(c types.Value) {
	if _, ok := l.pendingSet[c]; !ok {
		return
	}
	delete(l.pendingSet, c)
	for k, p := range l.pending {
		if p == c {
			l.pending = append(l.pending[:k], l.pending[k+1:]...)
			return
		}
	}
}

// Entries returns the retained committed-entry suffix (shared slice;
// callers must not mutate). Before any compaction this is the whole log;
// after, it starts at EntriesBase().
func (l *Engine) Entries() []Entry { return l.entries }

// EntriesBase returns the index of the first retained entry (entries
// below it were trimmed by Compact).
func (l *Engine) EntriesBase() int { return l.entriesBase }

// Committed returns the number of committed commands (including trimmed
// ones).
func (l *Engine) Committed() int { return l.entriesBase + len(l.entries) }

// Applied returns the number of applied instances (instances [0, Applied)
// are applied).
func (l *Engine) Applied() types.Instance { return l.applied }

// Pending returns the number of submitted, uncommitted commands.
func (l *Engine) Pending() int { return len(l.pending) }

// NoOps returns how many applied instances committed nothing new
// (⊥ decisions, undecodable batches, or fully duplicate batches).
func (l *Engine) NoOps() int { return l.noOps }

// DroppedAhead returns how many messages the MaxLead guard dropped.
func (l *Engine) DroppedAhead() uint64 { return l.dropsAhead }

// DroppedRetired returns how many messages arrived for compacted
// instances.
func (l *Engine) DroppedRetired() uint64 { return l.dropsBelow }

// Floor returns the compaction floor: instances < Floor are retired.
func (l *Engine) Floor() types.Instance { return l.floor }

// Retired returns how many instance engines Compact and InstallSnapshot
// have released.
func (l *Engine) Retired() int { return l.retired }

// Installs returns how many peer snapshots InstallSnapshot has applied.
func (l *Engine) Installs() int { return l.installs }

// Closed reports whether the engine stopped starting new instances.
func (l *Engine) Closed() bool { return l.closed }

// Waiting reports whether the engine holds work past its apply point: an
// instance it opened that has not applied yet, a peer instance at or past
// the apply point, or pending commands. An engine that is not waiting is
// idle, and a frozen apply point then means nothing is owed to it.
func (l *Engine) Waiting() bool {
	return l.nextStart > l.applied || l.peerMax >= l.applied || len(l.pending) > 0
}

// Err returns the first internal construction error, if any.
func (l *Engine) Err() error { return l.err }

// Instance exposes the consensus engine of instance i (introspection;
// nil if never touched).
func (l *Engine) Instance(i types.Instance) *core.Engine {
	if inst, ok := l.insts[i]; ok {
		return inst.eng
	}
	return nil
}

// Instances returns the number of instantiated consensus engines.
func (l *Engine) Instances() int { return len(l.insts) }

// Relay exposes the coalescing relay for introspection (nil unless
// Config.Coalesce was set).
func (l *Engine) Relay() *rb.Relay { return l.relay }

// instEnv wraps the process environment for one instance: outgoing
// messages are stamped with the instance number; everything else
// delegates. This is how the instance-agnostic protocol stack
// (rb/cb/ac/ea/core) runs unchanged inside a multi-instance log.
type instEnv struct {
	base proto.Env
	id   types.Instance
}

var _ proto.Env = (*instEnv)(nil)

func (e *instEnv) ID() types.ProcID     { return e.base.ID() }
func (e *instEnv) Params() types.Params { return e.base.Params() }
func (e *instEnv) Now() types.Time      { return e.base.Now() }

func (e *instEnv) Send(to types.ProcID, m proto.Message) {
	m.Instance = e.id
	e.base.Send(to, m)
}

func (e *instEnv) Broadcast(m proto.Message) {
	m.Instance = e.id
	e.base.Broadcast(m)
}

func (e *instEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	return e.base.SetTimer(d, fn)
}

func (e *instEnv) Trace() trace.Sink { return e.base.Trace() }
