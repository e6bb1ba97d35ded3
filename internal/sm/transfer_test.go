package sm

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// --- Transfer codec ----------------------------------------------------------

func buildSnapshot(t *testing.T, entries int) (*Applier, Snapshot, []log.Entry) {
	t.Helper()
	a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: entries})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, a, 0, entries, 2, 0)
	s, ok := a.Latest()
	if !ok {
		t.Fatal("no snapshot taken")
	}
	retained := []log.Entry{
		{Index: s.Index - 1, Instance: s.Instance - 1, Cmd: "retained-cmd"},
	}
	return a, s, retained
}

func TestTransferRoundTrip(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	v := EncodeTransfer(s, retained)
	got, gotRetained, payload, err := DecodeTransfer(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != s.Index || got.Instance != s.Instance || got.Digest != s.Digest {
		t.Fatalf("snapshot drifted: got (%d,%v,%x), want (%d,%v,%x)",
			got.Index, got.Instance, got.Digest[:4], s.Index, s.Instance, s.Digest[:4])
	}
	if string(got.Data) != string(s.Data) {
		t.Fatal("snapshot bytes drifted")
	}
	if len(gotRetained) != 1 || gotRetained[0] != retained[0] {
		t.Fatalf("retained drifted: %+v", gotRetained)
	}
	var zero [32]byte
	if payload == zero {
		t.Fatal("zero payload digest")
	}
	// Same inputs, same payload digest (corroboration depends on it).
	_, _, payload2, err := DecodeTransfer(EncodeTransfer(s, retained))
	if err != nil || payload2 != payload {
		t.Fatalf("payload digest not deterministic: %x vs %x (%v)", payload[:4], payload2[:4], err)
	}
}

func TestTransferEmptyRetained(t *testing.T) {
	_, s, _ := buildSnapshot(t, 4)
	got, retained, _, err := DecodeTransfer(EncodeTransfer(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != s.Index || len(retained) != 0 {
		t.Fatalf("empty-retained round trip: %d entries", len(retained))
	}
}

func TestTransferRejectsTampering(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	valid := []byte(EncodeTransfer(s, retained))
	tests := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"flip body byte", func(b []byte) []byte { b[40] ^= 1; return b }},
		{"flip digest byte", func(b []byte) []byte { b[0] ^= 1; return b }},
		{"truncate", func(b []byte) []byte { return b[:len(b)-2] }},
		{"extend", func(b []byte) []byte { return append(b, 0) }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tt := range tests {
		b := append([]byte(nil), valid...)
		if _, _, _, err := DecodeTransfer(types.Value(tt.mutate(b))); err == nil {
			t.Errorf("%s: accepted", tt.name)
		}
	}
}

// --- Applier.Install ---------------------------------------------------------

func TestInstallAdoptsPeerState(t *testing.T) {
	peer, s, retained := buildSnapshot(t, 8)
	lag, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if err := lag.Install(s, retained); err != nil {
		t.Fatal(err)
	}
	if lag.Applied() != s.Index {
		t.Fatalf("applied=%d, want %d", lag.Applied(), s.Index)
	}
	if lag.Installs() != 1 {
		t.Fatalf("installs=%d", lag.Installs())
	}
	if lag.StateDigest() != peer.StateDigest() {
		t.Fatal("installed state does not match the peer's")
	}
	// The installed snapshot (and its retained suffix) is now servable
	// onward.
	got, gotRetained, ok := lag.LatestTransfer()
	if !ok || got.Digest != s.Digest || len(gotRetained) != len(retained) {
		t.Fatal("installed snapshot not retrievable for onward transfer")
	}
}

func TestInstallRejectsStaleAndForged(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	lag, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	// Stamp contradiction.
	bad := s
	bad.Index++
	if err := lag.Install(bad, retained); err == nil || !strings.Contains(err.Error(), "contradicts") {
		t.Fatalf("header/stamp contradiction accepted: %v", err)
	}
	// Digest contradiction.
	bad = s
	bad.Digest[0] ^= 1
	if err := lag.Install(bad, retained); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch accepted: %v", err)
	}
	// Garbage machine bytes: rejected without poisoning (kv.Store.Restore
	// is all-or-nothing).
	bad = s
	bad.Data = encodeSnapshot(s.Index, s.Instance, []byte("garbage"))
	bad.Digest = sha256.Sum256(bad.Data)
	if err := lag.Install(bad, retained); err == nil {
		t.Fatal("garbage machine bytes accepted")
	}
	if lag.Err() != nil {
		t.Fatalf("failed install poisoned the applier: %v", lag.Err())
	}
	// Stale boundary: not ahead of the live position.
	feed(t, lag, 0, 12, 2, 0)
	if err := lag.Install(s, retained); err == nil {
		t.Fatal("stale snapshot accepted")
	}
	if lag.Installs() != 0 {
		t.Fatalf("failed installs counted: %d", lag.Installs())
	}
}

// --- Transfer handler --------------------------------------------------------

// xferEnv is a scripted proto.Env for Transfer unit tests.
type xferEnv struct {
	id     types.ProcID
	params types.Params
	now    types.Time
	sent   []struct {
		to types.ProcID
		m  proto.Message
	}
	bcast  []proto.Message
	timers []func()
}

var _ proto.Env = (*xferEnv)(nil)

func (e *xferEnv) ID() types.ProcID     { return e.id }
func (e *xferEnv) Params() types.Params { return e.params }
func (e *xferEnv) Now() types.Time      { return e.now }
func (e *xferEnv) Send(to types.ProcID, m proto.Message) {
	e.sent = append(e.sent, struct {
		to types.ProcID
		m  proto.Message
	}{to, m})
}
func (e *xferEnv) Broadcast(m proto.Message) { e.bcast = append(e.bcast, m) }
func (e *xferEnv) SetTimer(d types.Duration, fn func()) (cancel func()) {
	e.timers = append(e.timers, fn)
	return func() {}
}
func (e *xferEnv) Trace() trace.Sink { return trace.Discard{} }

// fakeLog is a scripted LogControl.
type fakeLog struct {
	applied   types.Instance
	committed int
	closed    bool
	idle      bool // Waiting reports !idle
	installs  []types.Instance
}

func (f *fakeLog) Applied() types.Instance { return f.applied }
func (f *fakeLog) Committed() int          { return f.committed }
func (f *fakeLog) Closed() bool            { return f.closed }
func (f *fakeLog) Waiting() bool           { return !f.idle }
func (f *fakeLog) InstallSnapshot(b types.Instance, idx int, retained []log.Entry) error {
	f.installs = append(f.installs, b)
	f.applied = b
	f.committed = idx
	return nil
}

type sink struct{ msgs []proto.Message }

func (s *sink) OnMessage(from types.ProcID, m proto.Message) { s.msgs = append(s.msgs, m) }

func newTestTransfer(t *testing.T, app *Applier, lg *fakeLog) (*Transfer, *xferEnv, *sink) {
	t.Helper()
	env := &xferEnv{id: 1, params: types.Params{N: 4, T: 1}}
	next := &sink{}
	tr, err := NewTransfer(TransferConfig{Env: env, Applier: app, Log: lg, Next: next})
	if err != nil {
		t.Fatal(err)
	}
	return tr, env, next
}

func TestTransferServesAndDeclines(t *testing.T) {
	peer, s, _ := buildSnapshot(t, 8)
	tr, env, _ := newTestTransfer(t, peer, &fakeLog{applied: s.Instance, committed: s.Index})
	// Requester behind the snapshot boundary: served.
	tr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 0})
	if tr.Served() != 1 || len(env.sent) != 1 || env.sent[0].m.Kind != proto.MsgSnapResponse {
		t.Fatalf("serve: served=%d sent=%d", tr.Served(), len(env.sent))
	}
	if env.sent[0].m.Instance != s.Instance {
		t.Fatalf("response instance %v, want %v", env.sent[0].m.Instance, s.Instance)
	}
	// Immediate re-request: rate-limited.
	tr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 0})
	if tr.Served() != 1 {
		t.Fatalf("rate limit bypassed: served=%d", tr.Served())
	}
	// Requester at/past the boundary: declined.
	env.now += types.Time(time1s)
	tr.OnMessage(4, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: s.Instance})
	if tr.Served() != 1 {
		t.Fatalf("served a requester that was not behind: %d", tr.Served())
	}
}

const time1s = 1_000_000_000

func TestTransferInstallsOnCorroboration(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{}
	tr, _, _ := newTestTransfer(t, lagApp, lg)
	resp := proto.Message{
		Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: s.Instance, Val: InlineTransfer(EncodeTransfer(s, retained)),
	}
	tr.OnMessage(2, resp)
	if tr.Installs() != 0 {
		t.Fatal("installed on a single sender (t+1 = 2 required)")
	}
	tr.OnMessage(2, resp) // same sender again: still one voice
	if tr.Installs() != 0 {
		t.Fatal("duplicate sender counted twice")
	}
	tr.OnMessage(3, resp)
	if tr.Installs() != 1 {
		t.Fatalf("installs=%d after t+1 distinct senders", tr.Installs())
	}
	if len(lg.installs) != 1 || lg.installs[0] != s.Instance {
		t.Fatalf("log install boundary: %v", lg.installs)
	}
	if lagApp.Applied() != s.Index {
		t.Fatalf("applier at %d, want %d", lagApp.Applied(), s.Index)
	}
}

func TestTransferRejectsForgedResponses(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	lagApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := newTestTransfer(t, lagApp, &fakeLog{})
	v := []byte(EncodeTransfer(s, retained))
	v[50] ^= 1 // corrupt the body
	tr.OnMessage(2, proto.Message{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: s.Instance, Val: InlineTransfer(types.Value(v))})
	if tr.Rejected() != 1 || tr.Installs() != 0 {
		t.Fatalf("forged response: rejected=%d installs=%d", tr.Rejected(), tr.Installs())
	}
	// Frame/payload boundary contradiction.
	tr.OnMessage(2, proto.Message{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: s.Instance + 1, Val: InlineTransfer(EncodeTransfer(s, retained))})
	if tr.Rejected() != 2 {
		t.Fatalf("boundary contradiction accepted: rejected=%d", tr.Rejected())
	}
}

func TestTransferForwardsProtocolTraffic(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, next := newTestTransfer(t, app, &fakeLog{})
	m := proto.Message{Kind: proto.MsgRBEcho, Tag: proto.Tag{Mod: proto.ModConsCB0}, Instance: 3, Origin: 2, Val: "v"}
	tr.OnMessage(2, m)
	if len(next.msgs) != 1 || next.msgs[0] != m {
		t.Fatalf("protocol traffic not forwarded: %+v", next.msgs)
	}
}

func TestTransferPressureTriggersFetch(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, env, _ := newTestTransfer(t, app, &fakeLog{})
	tr.OnDroppedAhead(40)
	if tr.Requests() != 1 || len(env.bcast) != 1 || env.bcast[0].Kind != proto.MsgSnapRequest {
		t.Fatalf("pressure did not broadcast a request: requests=%d bcast=%d", tr.Requests(), len(env.bcast))
	}
	tr.OnDroppedAhead(41) // fetch already in flight: no second broadcast
	if tr.Requests() != 1 {
		t.Fatalf("duplicate fetch round: requests=%d", tr.Requests())
	}
}

// TestTransferIdleRejoinGap pins the idle-rejoin gap and its fix. A
// long-idle cluster churns ⊥ instances without entries, so the entry-
// cadence snapshot boundary freezes while the instance frontier runs
// ahead. A replica rejoining at that stale boundary is declined by
// serve() ("nothing the requester doesn't already have") forever — the
// gap. sm.Config.RefreshEvery closes it by re-stamping snapshots at
// no-op boundaries, and because refreshed payloads are byte-identical
// across correct replicas, t+1 corroboration still installs.
func TestTransferIdleRejoinGap(t *testing.T) {
	// build one cluster replica: 8 entries (snapshot at instance 4),
	// then an idle stretch of 16 entry-less instance boundaries.
	build := func(refresh types.Instance) *Applier {
		a, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 8, RefreshEvery: refresh})
		if err != nil {
			t.Fatal(err)
		}
		next := feed(t, a, 0, 8, 2, 0)
		for i := next; i < 20; i++ {
			a.OnApply(i, 0)
		}
		return a
	}

	// rejoiner: restarted into the idle cluster holding the pre-idle
	// boundary (instance 4) it transferred or recovered long ago.
	stalePeer := build(0)
	stale, ok := stalePeer.Latest()
	if !ok || stale.Instance != 4 {
		t.Fatalf("stale boundary = %+v, want instance 4", stale)
	}

	// The gap: every peer declines a requester already at the frozen
	// boundary, even though the frontier (instance 20) is far ahead.
	peerTr, peerEnv, _ := newTestTransfer(t, stalePeer, &fakeLog{applied: 20, committed: 8})
	peerTr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: stale.Instance})
	if peerTr.Served() != 0 || len(peerEnv.sent) != 0 {
		t.Fatalf("stale-boundary peer served anyway: served=%d", peerTr.Served())
	}

	// The fix: with RefreshEvery the boundary was re-stamped during the
	// idle stretch (instance 19 > 4), so the same request is served...
	fresh1, fresh2 := build(5), build(5)
	s1, _ := fresh1.Latest()
	if s1.Instance != 19 {
		t.Fatalf("refreshed boundary = %v, want 19", s1.Instance)
	}
	srvTr, srvEnv, _ := newTestTransfer(t, fresh1, &fakeLog{applied: 20, committed: 8})
	srvTr.OnMessage(3, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: stale.Instance})
	if srvTr.Served() != 1 || len(srvEnv.sent) != 1 {
		t.Fatalf("refreshed peer declined: served=%d", srvTr.Served())
	}

	// ...and two independent replicas' refreshed payloads are byte-
	// identical, so the rejoiner's t+1 corroboration installs the fresh
	// boundary and it is caught up to the frontier's neighborhood.
	rejoinApp, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rejoinApp.Install(stale, nil); err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{applied: stale.Instance, committed: stale.Index}
	rejoinTr, _, _ := newTestTransfer(t, rejoinApp, lg)
	for i, peer := range []*Applier{fresh1, fresh2} {
		s, retained, ok := peer.LatestTransfer()
		if !ok {
			t.Fatal("refreshed peer has no snapshot")
		}
		rejoinTr.OnMessage(types.ProcID(2+i), proto.Message{
			Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
			Instance: s.Instance, Val: InlineTransfer(EncodeTransfer(s, retained)),
		})
	}
	if rejoinTr.Installs() != 1 {
		t.Fatalf("refreshed snapshot not corroborated: installs=%d rejected=%d", rejoinTr.Installs(), rejoinTr.Rejected())
	}
	if lg.applied != 19 || rejoinApp.Applied() != 8 {
		t.Fatalf("rejoiner at (inst=%v, applied=%d), want (19, 8)", lg.applied, rejoinApp.Applied())
	}
}

// TestTransferFetchRoundEnds pins the end of a fetch round that finds
// nothing ahead: after TransferStallLimit retry firings without a
// response past our position the round stops re-requesting, so a boot
// query against a quiet cluster at our own boundary costs a few
// requests instead of one per RetryEvery forever. A response ahead of
// us keeps the round alive.
func TestTransferFetchRoundEnds(t *testing.T) {
	_, s, retained := buildSnapshot(t, 8)
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, env, _ := newTestTransfer(t, app, &fakeLog{idle: true})
	tr.Fetch()
	if tr.Requests() != 1 || len(env.timers) != 2 {
		t.Fatalf("fetch: requests=%d timers=%d", tr.Requests(), len(env.timers))
	}
	fireLast := func() { env.timers[len(env.timers)-1]() }
	fireLast()
	fireLast()
	// One peer serves a snapshot ahead (t+1 = 2 are needed to install):
	// the round has found something and must not give up yet.
	tr.OnMessage(2, proto.Message{
		Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap},
		Instance: s.Instance, Val: InlineTransfer(EncodeTransfer(s, retained)),
	})
	for i := 1; i < TransferStallLimit; i++ {
		fireLast()
	}
	if want := 1 + 2 + TransferStallLimit - 1; tr.Requests() != want {
		t.Fatalf("requests=%d after a response ahead, want %d", tr.Requests(), want)
	}
	timers := len(env.timers)
	fireLast() // the TransferStallLimit-th idle firing ends the round
	if len(env.timers) != timers {
		t.Fatal("round re-armed its retry after the stall limit")
	}
	requests := tr.Requests()
	// A new round can start.
	tr.Fetch()
	if tr.Requests() != requests+1 {
		t.Fatalf("second Fetch sent %d requests", tr.Requests()-requests)
	}
}

// TestTransferProbeSkipsIdleEngine: a paced engine with no work never
// advances, and that is not a stall — the probe must not turn a quiet
// replica into a request loop. The same frozen position with work
// outstanding is a stall.
func TestTransferProbeSkipsIdleEngine(t *testing.T) {
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	lg := &fakeLog{applied: 5, idle: true}
	tr, env, _ := newTestTransfer(t, app, lg)
	probe := func() { env.timers[len(env.timers)-1]() }
	probe() // records the position
	probe()
	probe()
	if tr.Requests() != 0 {
		t.Fatalf("idle engine probed into %d requests", tr.Requests())
	}
	lg.idle = false
	probe()
	if tr.Requests() != 1 {
		t.Fatalf("stalled engine with work: requests=%d, want 1", tr.Requests())
	}
}

// catchUpPeer builds a replica that snapshotted at 8 entries (instance
// boundary 4) and then committed 3 more entries through instance 5, so
// its applied frontier (6) runs past its latest snapshot.
func catchUpPeer(t *testing.T) (*Applier, *fakeLog) {
	t.Helper()
	var entries []log.Entry
	a, err := New(Config{
		Machine: kv.NewStore(), SnapshotEvery: 8,
		RetainedEntries: func() []log.Entry { return entries },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		cmd := kv.Command{Op: kv.OpPut, Client: 1, Seq: uint64(i + 1), Key: fmt.Sprintf("k%d", i%3), Val: fmt.Sprint(i)}
		e := log.Entry{Index: i, Instance: types.Instance(i / 2), Cmd: cmd.Encode()}
		entries = append(entries, e)
		a.OnCommit(e)
		if i%2 == 1 || i == 10 {
			a.OnApply(e.Instance, 0)
		}
	}
	if s, ok := a.Latest(); !ok || s.Index != 8 || s.Instance != 4 {
		t.Fatalf("peer snapshot: %+v", s)
	}
	return a, &fakeLog{applied: 6, committed: 11, idle: true}
}

// TestTransferServesCatchUpWhenQuiet: a quiet replica whose latest
// snapshot is not ahead of the requester, but whose frontier is, serves
// the snapshot plus the entries since it (form 2); a busy one, or one
// not ahead, declines.
func TestTransferServesCatchUpWhenQuiet(t *testing.T) {
	peer, lg := catchUpPeer(t)
	tr, env, _ := newTestTransfer(t, peer, lg)
	req := func(from types.ProcID, boundary types.Instance) {
		env.now += types.Time(time1s)
		tr.OnMessage(from, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: boundary})
	}
	lg.idle = false
	req(2, 4)
	if len(env.sent) != 0 {
		t.Fatal("busy replica served a catch-up")
	}
	lg.idle = true
	req(2, 6)
	if len(env.sent) != 0 {
		t.Fatal("served a requester already at our frontier")
	}
	req(2, 4)
	if len(env.sent) != 1 {
		t.Fatalf("quiet replica ahead of the requester sent %d responses", len(env.sent))
	}
	m := env.sent[0].m
	if m.Instance != 6 || len(m.Val) == 0 || m.Val[0] != TransferFormCatchUp {
		t.Fatalf("catch-up response: instance %v form %v", m.Instance, m.Val[0])
	}
	// A requester behind the snapshot still gets the plain snapshot.
	req(3, 2)
	if got := env.sent[1].m; got.Instance != 4 || got.Val[0] != TransferFormInline {
		t.Fatalf("requester behind the snapshot: instance %v form %v", got.Instance, got.Val[0])
	}
}

// TestTransferInstallsCatchUp: t+1 identical catch-ups bring a replica
// to the serving peer's exact position — state, applied count, latest
// snapshot, frontier — whether it starts from nothing or already holds
// the snapshot's prefix. A catch-up with a gap in its suffix is refused.
func TestTransferInstallsCatchUp(t *testing.T) {
	peer, lg := catchUpPeer(t)
	ptr, penv, _ := newTestTransfer(t, peer, lg)
	ptr.OnMessage(9, proto.Message{Kind: proto.MsgSnapRequest, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 4})
	resp := penv.sent[0].m
	snap, _ := peer.Latest()
	for _, tc := range []struct {
		name    string
		prefix  bool // the replica installed the snapshot already
		applied types.Instance
	}{{"from nothing", false, 0}, {"holding the snapshot", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			app, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			lagLog := &fakeLog{applied: tc.applied}
			if tc.prefix {
				_, retained, _ := peer.LatestTransfer()
				if err := app.Install(snap, retained); err != nil {
					t.Fatal(err)
				}
				lagLog.committed = snap.Index
			}
			tr, _, _ := newTestTransfer(t, app, lagLog)
			tr.OnMessage(2, resp)
			if tr.Installs() != 0 {
				t.Fatal("installed on one sender")
			}
			tr.OnMessage(3, resp)
			if tr.Installs() != 1 || tr.Rejected() != 0 {
				t.Fatalf("installs=%d rejected=%d", tr.Installs(), tr.Rejected())
			}
			if app.Applied() != peer.Applied() || app.StateDigest() != peer.StateDigest() {
				t.Fatalf("caught up to %d entries (state %x), peer at %d (%x)",
					app.Applied(), app.StateDigest(), peer.Applied(), peer.StateDigest())
			}
			if got, _ := app.Latest(); got.Digest != snap.Digest {
				t.Fatal("latest snapshot differs from the peer's: snapshot cadence would drift")
			}
			if len(lagLog.installs) != 1 || lagLog.installs[0] != 6 || lagLog.committed != 11 {
				t.Fatalf("log realigned to %v with %d committed, want frontier 6 and 11", lagLog.installs, lagLog.committed)
			}
		})
	}

	// A suffix entry with the wrong index: refused, never installed.
	s, entries, _, err := DecodeTransfer(types.Value(resp.Val[9:]))
	if err != nil {
		t.Fatal(err)
	}
	entries[len(entries)-1].Index++
	forged := append([]byte(nil), resp.Val[:9]...)
	forged = append(forged, EncodeTransfer(s, entries)...)
	app, err := New(Config{Machine: kv.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	tr, _, _ := newTestTransfer(t, app, &fakeLog{})
	for _, from := range []types.ProcID{2, 3} {
		tr.OnMessage(from, proto.Message{Kind: proto.MsgSnapResponse, Tag: proto.Tag{Mod: proto.ModSnap}, Instance: 6, Val: types.Value(forged)})
	}
	if tr.Installs() != 0 || tr.Rejected() != 2 {
		t.Fatalf("gapped catch-up: installs=%d rejected=%d", tr.Installs(), tr.Rejected())
	}
}
