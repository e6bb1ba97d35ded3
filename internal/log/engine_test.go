package log

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/rb"
	"repro/internal/trace"
	"repro/internal/types"
)

// stubEnv is a minimal single-process environment: sends are captured,
// timers are never fired. Enough to unit-test the engine's bookkeeping;
// full-protocol behavior is covered by the simulator tests in
// internal/runner and internal/rt.
type stubEnv struct {
	id     types.ProcID
	params types.Params
	sent   []proto.Message
}

var _ proto.Env = (*stubEnv)(nil)

func (e *stubEnv) ID() types.ProcID     { return e.id }
func (e *stubEnv) Params() types.Params { return e.params }
func (e *stubEnv) Now() types.Time      { return 0 }
func (e *stubEnv) Send(to types.ProcID, m proto.Message) {
	e.sent = append(e.sent, m)
}
func (e *stubEnv) Broadcast(m proto.Message) {
	for range e.params.AllProcs() {
		e.sent = append(e.sent, m)
	}
}
func (e *stubEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	return func() {}
}
func (e *stubEnv) Trace() trace.Sink { return trace.Discard{} }

func newTestEngine(t *testing.T, cfg Config) (*Engine, *stubEnv) {
	t.Helper()
	env := &stubEnv{id: 1, params: types.Params{N: 4, T: 1}}
	cfg.Env = env
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, env
}

// peerOpens delivers peer 2's INIT for instance i: pacing rule (b), which
// makes the engine propose in every window slot up to i.
func peerOpens(eng *Engine, i types.Instance) {
	eng.OnMessage(2, proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: i, Origin: 2, Val: EncodeBatch(nil),
	})
}

func TestSubmitIdempotent(t *testing.T) {
	eng, _ := newTestEngine(t, Config{})
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 1 {
		t.Fatalf("duplicate submit queued twice: pending=%d", eng.Pending())
	}
}

func TestSubmitRejectsBot(t *testing.T) {
	eng, _ := newTestEngine(t, Config{})
	if err := eng.Submit(types.BotValue); err == nil {
		t.Fatal("⊥ submission accepted")
	}
}

func TestStartTwice(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

// TestStartOpensPipelineInstances pins the burst cap: with more unbatched
// work than one batch holds, Start fills the window — and never more
// than Pipeline slots.
func TestStartOpensPipelineInstances(t *testing.T) {
	eng, env := newTestEngine(t, Config{Pipeline: 3, BatchSize: 2})
	for i := 0; i < 10; i++ {
		if err := eng.Submit(types.Value(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 3 {
		t.Fatalf("Start opened %d instances, want 3", eng.Instances())
	}
	// Every outgoing message must be stamped with an instance in [0, 3).
	seen := map[types.Instance]bool{}
	for _, m := range env.sent {
		if m.Instance < 0 || m.Instance >= 3 {
			t.Fatalf("message stamped with instance %v", m.Instance)
		}
		seen[m.Instance] = true
	}
	if len(seen) != 3 {
		t.Fatalf("traffic on %d instances, want 3", len(seen))
	}
	// More work while the window is full opens nothing.
	if err := eng.Submit("z"); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 3 {
		t.Fatalf("a full window opened instance %d", eng.Instances())
	}
}

// TestInFlightCommandsNotReProposed pins rule (a) of the pacing: once
// every pending command rides in an undecided batch, no further slot
// opens to re-propose them (or to propose an empty batch).
func TestInFlightCommandsNotReProposed(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2, BatchSize: 8})
	for _, c := range []types.Value{"a", "b"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 1 {
		t.Fatalf("two in-flight commands opened %d instances, want 1", eng.Instances())
	}
	if i0 := eng.insts[0]; len(i0.ownBatch) != 2 {
		t.Fatalf("instance 0 batch: %q", i0.ownBatch)
	}
	// Re-submitting an in-flight command is a no-op, not demand.
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 1 {
		t.Fatalf("duplicate submit opened instance %d", eng.Instances())
	}
	// A ⊥ decision returns a and b to the queue: they ride nowhere now,
	// so the next slot opens and carries them again.
	eng.onInstanceDecided(0, types.BotValue)
	if eng.Applied() != 1 || eng.Instances() != 2 {
		t.Fatalf("after ⊥: applied=%v instances=%d, want 1 and 2", eng.Applied(), eng.Instances())
	}
	if i1 := eng.insts[1]; len(i1.ownBatch) != 2 {
		t.Fatalf("instance 1 batch after ⊥: %q", i1.ownBatch)
	}
}

func TestIdleEngineOpensNothing(t *testing.T) {
	eng, env := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 0 || len(env.sent) != 0 {
		t.Fatalf("idle engine opened %d instances, sent %d messages", eng.Instances(), len(env.sent))
	}
	if eng.Waiting() {
		t.Fatal("idle engine reports waiting work")
	}
	// Applying a decision does not reopen the window on its own either.
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if eng.Applied() != 1 || eng.Instances() != 1 || eng.Waiting() {
		t.Fatalf("drained engine: applied=%v instances=%d waiting=%v", eng.Applied(), eng.Instances(), eng.Waiting())
	}
}

func TestSubmitOpensOneSlot(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 1 {
		t.Fatalf("one command opened %d instances, want 1", eng.Instances())
	}
	if got := eng.insts[0].ownBatch; len(got) != 1 || got[0] != "a" {
		t.Fatalf("instance 0 batch: %q", got)
	}
	if !eng.Waiting() {
		t.Fatal("engine with an open instance reports no waiting work")
	}
	// A second command rides in no batch yet: it takes the next slot.
	if err := eng.Submit("b"); err != nil {
		t.Fatal(err)
	}
	if eng.Instances() != 2 {
		t.Fatalf("second command: %d instances, want 2", eng.Instances())
	}
}

func TestPeerMessageOpensSlotsUpToIt(t *testing.T) {
	eng, env := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 2, Origin: 2, Val: EncodeBatch(nil),
	})
	// Instances 0..2 are proposed in (the peer's instance 2 decides only
	// after 0 and 1 apply, so they must run too); 3 stays closed.
	for i := types.Instance(0); i <= 2; i++ {
		if inst := eng.insts[i]; inst == nil || !inst.proposed {
			t.Fatalf("instance %v not proposed in after a peer opened 2", i)
		}
	}
	if _, ok := eng.insts[3]; ok {
		t.Fatal("instance 3 opened without demand")
	}
	for _, m := range env.sent {
		if m.Instance > 2 {
			t.Fatalf("traffic on instance %v", m.Instance)
		}
	}
}

func TestPeerMessagePastWindowIsPassive(t *testing.T) {
	eng, env := newTestEngine(t, Config{Pipeline: 2, MaxLead: 16})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 5, Origin: 2, Val: EncodeBatch(nil),
	})
	if eng.Instances() != 1 || eng.insts[5] == nil || eng.insts[5].proposed {
		t.Fatalf("instance past the window: instances=%d", eng.Instances())
	}
	for _, m := range env.sent {
		if m.Kind == proto.MsgRBInit && m.Origin == 1 {
			t.Fatalf("engine proposed (instance %v) for an instance past its window", m.Instance)
		}
	}
	if !eng.Waiting() {
		t.Fatal("a peer instance ahead must count as waiting work")
	}
	// Once the window slides over it, the engine joins it and every
	// slot below it.
	for i := types.Instance(0); i < 4; i++ {
		eng.onInstanceDecided(i, types.BotValue)
	}
	for i := types.Instance(4); i <= 5; i++ {
		if inst := eng.insts[i]; inst == nil || !inst.proposed {
			t.Fatalf("instance %v not joined after the window reached 5", i)
		}
	}
	if _, ok := eng.insts[6]; ok {
		t.Fatal("instance 6 opened without demand")
	}
}

func TestBatchSizeCap(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, BatchSize: 4})
	for i := 0; i < 10; i++ {
		if err := eng.Submit(types.Value(string(rune('a' + i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if got := len(eng.insts[0].ownBatch); got != 4 {
		t.Fatalf("batch carries %d commands, want 4", got)
	}
}

func TestMaxLeadGuard(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, MaxLead: 8})
	if err := eng.Submit("a"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	m := proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 1 << 30, Origin: 2, Val: "spam",
	}
	eng.OnMessage(2, m)
	if eng.DroppedAhead() != 1 {
		t.Fatalf("far-ahead instance not dropped (drops=%d)", eng.DroppedAhead())
	}
	if eng.Instances() != 1 {
		t.Fatalf("far-ahead instance instantiated an engine (insts=%d)", eng.Instances())
	}
	// Negative instances (impossible off the wire, but defensive).
	m.Instance = -1
	eng.OnMessage(2, m)
	if eng.DroppedAhead() != 2 {
		t.Fatal("negative instance not dropped")
	}
	// In-window instances are accepted.
	m.Instance = 3
	eng.OnMessage(2, m)
	if eng.Instances() != 2 {
		t.Fatal("in-window instance not instantiated")
	}
}

func TestUncoalescedEngineDropsCarrierKinds(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1}) // Coalesce off
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	before := eng.Instances()
	// The carrier kinds bypass proto.Node dedup and carry Instance 0; an
	// uncoalesced engine must drop them, not route them into instance 0.
	for _, k := range []proto.MsgKind{proto.MsgRBVector, proto.MsgRBPull, proto.MsgRBPullResp} {
		eng.OnMessage(2, proto.Message{Kind: k, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: "junk"})
	}
	if eng.Instances() != before || eng.DroppedAhead() != 0 || eng.DroppedRetired() != 0 {
		t.Fatalf("carrier kinds routed: insts=%d ahead=%d retired=%d",
			eng.Instances(), eng.DroppedAhead(), eng.DroppedRetired())
	}
}

func TestCoalescedEngineWindowGuardsRelayState(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, MaxLead: 8, Coalesce: true})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// A vector naming a far-future instance: the relay must forward it
	// into the MaxLead accounting (lag signal) without allocating state,
	// and an out-of-window INIT must not seed the value cache.
	enc, err := rb.EncodeEntries([]rb.Entry{{
		Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Origin: 2, Instance: 1 << 30, Val: "spam",
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBVector, Tag: proto.Tag{Mod: proto.ModRBRelay}, Origin: 2, Val: types.Value(enc)})
	if eng.DroppedAhead() != 1 {
		t.Fatalf("out-of-window entry missing from lag accounting (drops=%d)", eng.DroppedAhead())
	}
	if eng.Relay().WindowDrops() != 1 || eng.Relay().Parked() != 0 {
		t.Fatalf("relay state: windowDrops=%d parked=%d", eng.Relay().WindowDrops(), eng.Relay().Parked())
	}
	cacheBefore := eng.Relay().CacheBytes()
	eng.OnMessage(2, proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Origin: 2, Instance: 1 << 30, Val: types.Value(make([]byte, 64)),
	})
	if got := eng.Relay().CacheBytes(); got != cacheBefore {
		t.Fatalf("out-of-window INIT cached (%d bytes, was %d)", got, cacheBefore)
	}
}

func TestCloseStopsNewInstances(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2, BatchSize: 1})
	for _, c := range []types.Value{"a", "b", "c"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	// Deciding instance 0 would normally start instance 2 for "c".
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if eng.Instances() != 2 {
		t.Fatalf("closed engine opened a new instance (insts=%d)", eng.Instances())
	}
	if eng.Applied() != 1 {
		t.Fatalf("applied=%v, want 1", eng.Applied())
	}
}

func TestApplyInInstanceOrder(t *testing.T) {
	var got []types.Value
	eng, _ := newTestEngine(t, Config{Pipeline: 3, OnCommit: func(e Entry) {
		got = append(got, e.Cmd)
	}})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Decisions arrive out of order: 2, 0, 1.
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"c"}))
	if eng.Applied() != 0 {
		t.Fatal("applied out of order")
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if eng.Applied() != 1 {
		t.Fatalf("applied=%v after instance 0 decided", eng.Applied())
	}
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b"}))
	if eng.Applied() != 3 {
		t.Fatalf("applied=%v after all decided", eng.Applied())
	}
	want := []types.Value{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("committed %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed %q, want %q", got, want)
		}
	}
}

func TestApplyDeduplicatesAcrossBatches(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b", "c"}))
	if eng.Committed() != 3 {
		t.Fatalf("committed=%d, want 3 (b deduplicated)", eng.Committed())
	}
	if eng.Entries()[2].Cmd != "c" {
		t.Fatalf("entries: %+v", eng.Entries())
	}
}

func TestBotAndGarbageDecisionsAreNoOps(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, types.BotValue)
	eng.onInstanceDecided(1, types.Value("not a batch"))
	if eng.Committed() != 0 {
		t.Fatal("no-op decisions committed commands")
	}
	if eng.NoOps() != 2 {
		t.Fatalf("noops=%d, want 2", eng.NoOps())
	}
	if eng.Applied() != 2 {
		t.Fatalf("applied=%v, want 2", eng.Applied())
	}
}

func TestTargetClosesEngine(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 1, Target: 2})
	for _, c := range []types.Value{"a", "b", "c"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	if !eng.Closed() {
		t.Fatal("engine not closed at target")
	}
	if eng.Instances() != 1 {
		t.Fatalf("closed engine opened instance (insts=%d)", eng.Instances())
	}
}

// retireRecorder captures Retirer calls.
type retireRecorder struct{ floors []types.Instance }

func (r *retireRecorder) RetireInstancesBefore(f types.Instance) { r.floors = append(r.floors, f) }

func TestCompactRetiresWholesale(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	rec := &retireRecorder{}
	eng.SetRetirer(rec)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	peerOpens(eng, 3)
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "b"}))
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"c"}))
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"d"}))
	if eng.Applied() != 3 || eng.Committed() != 4 {
		t.Fatalf("setup: applied=%v committed=%d", eng.Applied(), eng.Committed())
	}
	instsBefore := eng.Instances()

	released := eng.Compact(2)
	if released != 2 {
		t.Fatalf("released %d engines, want 2", released)
	}
	if eng.Floor() != 2 || eng.Retired() != 2 {
		t.Fatalf("floor=%v retired=%d", eng.Floor(), eng.Retired())
	}
	if eng.Instances() != instsBefore-2 {
		t.Fatalf("live instances %d, want %d", eng.Instances(), instsBefore-2)
	}
	// Entries of instances 0 and 1 ("a","b","c") are trimmed; the suffix
	// and the total count survive.
	if eng.EntriesBase() != 3 || eng.Committed() != 4 {
		t.Fatalf("base=%d committed=%d", eng.EntriesBase(), eng.Committed())
	}
	if len(eng.Entries()) != 1 || eng.Entries()[0].Cmd != "d" || eng.Entries()[0].Index != 3 {
		t.Fatalf("retained entries: %+v", eng.Entries())
	}
	if len(rec.floors) != 1 || rec.floors[0] != 2 {
		t.Fatalf("retirer calls: %v", rec.floors)
	}
}

func TestCompactClampsToApplied(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 4})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	// Instance 1 not applied: a floor of 100 must clamp to 1.
	eng.Compact(100)
	if eng.Floor() != 1 {
		t.Fatalf("floor=%v, want clamp to applied boundary 1", eng.Floor())
	}
	// Re-compacting at or below the floor is a no-op.
	if n := eng.Compact(1); n != 0 {
		t.Fatalf("re-compact released %d", n)
	}
}

func TestCompactDropsRetiredInstanceTraffic(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	peerOpens(eng, 1)
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	eng.Compact(1)
	m := proto.Message{
		Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0},
		Instance: 0, Origin: 2, Val: "late",
	}
	eng.OnMessage(2, m)
	if eng.DroppedRetired() != 1 {
		t.Fatalf("retired-instance message not dropped (drops=%d)", eng.DroppedRetired())
	}
	if eng.Instances() == 0 {
		t.Fatal("live instances vanished")
	}
}

// TestCompactForgetsContentDedup: compaction trades the log's commit-time
// content dedup for bounded memory — a command committed before the floor
// may commit again (the session layer above restores exactly-once).
func TestCompactForgetsContentDedup(t *testing.T) {
	var got []types.Value
	eng, _ := newTestEngine(t, Config{Pipeline: 8, OnCommit: func(e Entry) {
		got = append(got, e.Cmd)
	}})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"x"}))
	// Before compaction a re-decided "x" deduplicates.
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"x"}))
	if eng.Committed() != 1 {
		t.Fatalf("pre-compaction dedup broken: committed=%d", eng.Committed())
	}
	eng.Compact(2)
	eng.onInstanceDecided(2, EncodeBatch([]types.Value{"x"}))
	if eng.Committed() != 2 {
		t.Fatalf("post-compaction recommit suppressed: committed=%d", eng.Committed())
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Fatalf("commit stream: %q", got)
	}
}

func TestAutoCompactLag(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 8, AutoCompactLag: 2})
	rec := &retireRecorder{}
	eng.SetRetirer(rec)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	peerOpens(eng, 7)
	for i := types.Instance(0); i < 6; i++ {
		eng.onInstanceDecided(i, EncodeBatch([]types.Value{types.Value("c" + i.String())}))
	}
	// applied = 6, lag = 2 ⇒ floor must trail at 4.
	if eng.Floor() != 4 {
		t.Fatalf("floor=%v, want 4", eng.Floor())
	}
	if eng.Retired() != 4 {
		t.Fatalf("retired=%d, want 4", eng.Retired())
	}
}

func TestOnApplyHookOrderAndCounts(t *testing.T) {
	type applyRec struct {
		inst  types.Instance
		newly int
	}
	var applies []applyRec
	var commitsSeen int
	eng, _ := newTestEngine(t, Config{
		Pipeline: 3,
		OnCommit: func(e Entry) { commitsSeen++ },
		OnApply: func(i types.Instance, newly int) {
			applies = append(applies, applyRec{i, newly})
			if newly > commitsSeen {
				t.Errorf("OnApply(%v) before its commits delivered", i)
			}
		},
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(1, EncodeBatch([]types.Value{"b"}))
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a", "c"}))
	eng.onInstanceDecided(2, types.BotValue)
	want := []applyRec{{0, 2}, {1, 1}, {2, 0}}
	if len(applies) != len(want) {
		t.Fatalf("applies: %+v", applies)
	}
	for i := range want {
		if applies[i] != want[i] {
			t.Fatalf("applies: %+v, want %+v", applies, want)
		}
	}
}

// --- Snapshot-install tests (state transfer) ---------------------------------

// installRetained builds a contiguous retained suffix ending at index−1.
func installRetained(index int, pairs ...struct {
	inst types.Instance
	cmd  types.Value
}) []Entry {
	out := make([]Entry, len(pairs))
	base := index - len(pairs)
	for i, p := range pairs {
		out[i] = Entry{Index: base + i, Instance: p.inst, Cmd: p.cmd}
	}
	return out
}

func pair(inst types.Instance, cmd types.Value) struct {
	inst types.Instance
	cmd  types.Value
} {
	return struct {
		inst types.Instance
		cmd  types.Value
	}{inst, cmd}
}

func TestInstallSnapshotJumpsAndSeeds(t *testing.T) {
	var commits []Entry
	eng, _ := newTestEngine(t, Config{
		Pipeline: 2, BatchSize: 4,
		OnCommit: func(e Entry) { commits = append(commits, e) },
	})
	for _, c := range []types.Value{"a", "b", "x", "y"} {
		if err := eng.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Snapshot covers 5 entries through instance 10; the retained window
	// holds the last two ("a" committed at i8, "b" at i9).
	retained := installRetained(5, pair(8, "a"), pair(9, "b"))
	if err := eng.InstallSnapshot(10, 5, retained); err != nil {
		t.Fatal(err)
	}
	if eng.Applied() != 10 || eng.Committed() != 5 || eng.Floor() != 8 {
		t.Fatalf("applied=%v committed=%d floor=%v, want 10/5/8", eng.Applied(), eng.Committed(), eng.Floor())
	}
	if eng.Installs() != 1 {
		t.Fatalf("installs=%d", eng.Installs())
	}
	if got := eng.EntriesBase(); got != 3 {
		t.Fatalf("entriesBase=%d, want 3", got)
	}
	// The pipeline resumes at the boundary on demand: nothing is pending
	// after the install, so only a peer's instance reopens it.
	if eng.Instances() != 0 {
		t.Fatalf("install opened %d instances without demand", eng.Instances())
	}
	peerOpens(eng, 11)
	if eng.insts[10] == nil || !eng.insts[10].proposed || eng.insts[11] == nil || !eng.insts[11].proposed {
		t.Fatal("pipeline not reopened at boundary")
	}
	// Dedup was seeded: a batch re-deciding "a" and "b" commits nothing,
	// while "x" (pending, never committed) commits at index 5.
	eng.onInstanceDecided(10, EncodeBatch([]types.Value{"a", "b", "x"}))
	if len(commits) != 1 || commits[0].Cmd != "x" || commits[0].Index != 5 {
		t.Fatalf("post-install commits: %+v", commits)
	}
	// The pending queue was dropped wholesale at install: commands
	// committed in the SKIPPED prefix are indistinguishable from live
	// ones here, and re-proposing one would commit it twice everywhere.
	if eng.Pending() != 0 {
		t.Fatalf("pending=%d after install, want 0", eng.Pending())
	}
	if got := eng.insts[11].ownBatch; len(got) != 0 {
		t.Fatalf("post-install proposal carries %q", got)
	}
}

func TestInstallSnapshotHaltsRetiredInstances(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	peerOpens(eng, 1)
	i0 := eng.Instance(0)
	if err := eng.InstallSnapshot(6, 3, nil); err != nil {
		t.Fatal(err)
	}
	if !i0.Stalled() {
		t.Fatal("retired undecided instance engine not halted")
	}
	if eng.Instance(0) != nil {
		t.Fatal("retired instance still registered")
	}
	if eng.Retired() != 2 {
		t.Fatalf("retired=%d, want 2", eng.Retired())
	}
	// With no retained suffix the floor is the boundary itself.
	if eng.Floor() != 6 {
		t.Fatalf("floor=%v, want 6", eng.Floor())
	}
}

func TestInstallSnapshotRejectsStaleAndForged(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.onInstanceDecided(0, EncodeBatch([]types.Value{"a"}))
	if err := eng.InstallSnapshot(1, 5, nil); err == nil {
		t.Fatal("boundary at applied accepted")
	}
	if err := eng.InstallSnapshot(4, 0, nil); err == nil {
		t.Fatal("index behind committed accepted")
	}
	// Retained suffix with a gap in indexes.
	bad := []Entry{{Index: 1, Instance: 2, Cmd: "b"}, {Index: 3, Instance: 3, Cmd: "c"}}
	if err := eng.InstallSnapshot(5, 3, bad); err == nil {
		t.Fatal("gapped retained suffix accepted")
	}
	// Retained entry at or past the boundary.
	bad = []Entry{{Index: 2, Instance: 7, Cmd: "b"}}
	if err := eng.InstallSnapshot(5, 3, bad); err == nil {
		t.Fatal("retained instance past boundary accepted")
	}
	if eng.Installs() != 0 {
		t.Fatalf("failed installs counted: %d", eng.Installs())
	}
}

func TestInstallSnapshotClosesAtTarget(t *testing.T) {
	eng, _ := newTestEngine(t, Config{Pipeline: 2, Target: 5})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.InstallSnapshot(9, 5, nil); err != nil {
		t.Fatal(err)
	}
	if !eng.Closed() {
		t.Fatal("engine open past Target after install")
	}
	// No proposals into instances nobody else will run.
	if eng.insts[9] != nil {
		t.Fatal("closed engine reopened the pipeline")
	}
}

func TestOnDroppedAheadHook(t *testing.T) {
	var lagged []types.Instance
	eng, _ := newTestEngine(t, Config{
		Pipeline: 2, MaxLead: 4,
		OnDroppedAhead: func(i types.Instance) { lagged = append(lagged, i) },
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 7, Origin: 2, Val: "v"})
	eng.OnMessage(2, proto.Message{Kind: proto.MsgRBInit, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 2, Origin: 2, Val: "v"})
	if len(lagged) != 1 || lagged[0] != 7 {
		t.Fatalf("lag hook calls: %v", lagged)
	}
	if eng.DroppedAhead() != 1 {
		t.Fatalf("droppedAhead=%d", eng.DroppedAhead())
	}
}

// TestCanonicalBatches: with CanonicalBatches set, batch selection is a
// function of the pending SET — engines that received the same commands
// in different arrival orders propose identical batches (the liveness
// requirement of live clusters, where forwarded commands arrive at each
// replica in transport order).
func TestCanonicalBatches(t *testing.T) {
	a, _ := newTestEngine(t, Config{CanonicalBatches: true, BatchSize: 2})
	b, _ := newTestEngine(t, Config{CanonicalBatches: true, BatchSize: 2})
	for _, c := range []types.Value{"cmd-c", "cmd-a", "cmd-b"} {
		if err := a.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []types.Value{"cmd-b", "cmd-c", "cmd-a"} {
		if err := b.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	ba, bb := a.nextBatch(), b.nextBatch()
	want := []types.Value{"cmd-a", "cmd-b"} // sorted, capped at BatchSize
	for i, batch := range [][]types.Value{ba, bb} {
		if len(batch) != len(want) || batch[0] != want[0] || batch[1] != want[1] {
			t.Fatalf("engine %d proposed %v, want %v", i, batch, want)
		}
	}

	// Canonical selection ignores the in-flight partition: a second
	// undecided instance re-proposes the same head-of-queue batch
	// (apply-time content dedup keeps commits exactly-once). Excluding
	// in-flight commands would make the batch depend on local decide
	// timing, which diverges across replicas.
	for _, c := range ba {
		a.inFlight[c]++
	}
	if again := a.nextBatch(); len(again) != 2 || again[0] != want[0] || again[1] != want[1] {
		t.Fatalf("canonical re-proposal = %v, want %v", again, want)
	}

	// Default (FIFO) selection keeps arrival order and partitions the
	// queue across in-flight batches: digest-pinned simulation runs
	// must not change shape.
	f, _ := newTestEngine(t, Config{BatchSize: 2})
	for _, c := range []types.Value{"cmd-c", "cmd-a", "cmd-b"} {
		if err := f.Submit(c); err != nil {
			t.Fatal(err)
		}
	}
	if batch := f.nextBatch(); batch[0] != "cmd-c" || batch[1] != "cmd-a" {
		t.Fatalf("FIFO selection changed: %v", batch)
	}
	f.inFlight["cmd-c"]++
	f.inFlight["cmd-a"]++
	if batch := f.nextBatch(); len(batch) != 1 || batch[0] != "cmd-b" {
		t.Fatalf("FIFO partition = %v, want [cmd-b]", batch)
	}
}
