// Snapshot state transfer between replicas.
//
// Log compaction (log.Engine.Compact) bounds memory by retiring
// pre-snapshot instance state — including the reliable-broadcast echo
// service that lagging replicas relied on to catch up. A replica that
// falls more than MaxLead instances behind the cluster therefore reaches
// a state where replay is impossible by construction: the messages it
// needs were dropped by its own MaxLead guard and will never be resent,
// and the peers that could re-serve them have compacted the instances
// away. Transfer closes that gap the way self-stabilizing protocols do —
// by converging from a peer's CURRENT state instead of its history.
//
// The protocol is a request, a form-tagged response, and — for payloads
// too large for one frame — a chunk stream (module proto.ModSnap):
//
//	SNAP_REQ   — broadcast by a lagging replica; Instance carries the
//	             requester's applied boundary so peers with nothing newer
//	             can decline silently.
//	SNAP_RESP  — form 0 (inline): one digest-stamped transfer payload in
//	             a single frame (EncodeTransfer), sent point-to-point.
//	             Form 1 (manifest): the payload's position, length and
//	             per-chunk SHA-256 list (EncodeManifest) — served when
//	             the payload exceeds TransferInlineMax, which a single
//	             wire frame could not carry (wire codec v5).
//	             Form 2 (catch-up): a quiet peer whose latest snapshot
//	             is not ahead of the requester but whose applied
//	             frontier is sends that snapshot plus the entries it
//	             committed since, and the frontier (see serve).
//	SNAP_ACK   — requester → server: the next chunk range wanted of a
//	             corroborated manifest's payload. Re-sent (by the retry
//	             timer) for whatever range is still missing, which is how
//	             a download survives chunk loss; the server answering is
//	             rotated across corroborating peers, which is how it
//	             survives a withholding server.
//	SNAP_CHUNK — server → requester: one chunk, checked on arrival
//	             against the manifest's pinned hash.
//
// Trust model: a snapshot is installed only when (a) its bytes hash to
// the stamped digest, (b) t+1 DISTINCT peers served byte-identical
// copies — of the payload itself on the inline path, of the MANIFEST on
// the chunked path (the manifest is a pure function of the payload, so
// t+1 matching manifests pin every chunk hash before a single chunk is
// fetched) — and (c) the restored state re-encodes to the digest
// (Applier.Install). Because at most t peers are Byzantine, t+1 matching
// copies always include one from a correct replica, and correct replicas
// only serve what their own deterministic apply produced — so an
// installed snapshot is a genuine cluster state. Responses and chunks
// that fail validation are dropped; forgeries can therefore waste
// bandwidth but never state. Serving is rate-limited per requester, and
// one 40-byte ack yields at most TransferChunkWindow chunk frames, so
// neither request nor ack spam amplifies unboundedly.
package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/log"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/types"
)

// transferDigestLen prefixes every SNAP_RESP payload.
const transferDigestLen = 32

// maxTransferEntries bounds the retained-suffix count in a transfer
// payload (Byzantine defense: a forged count must not force unbounded
// allocation; real windows are CompactKeep-sized).
const maxTransferEntries = 1 << 20

// maxCandidates bounds the corroboration table. Unmatched payloads hold
// full snapshot bytes, and a Byzantine peer can mint unlimited DISTINCT
// well-formed payloads (the digest is unsigned), so the table must not
// grow with attacker effort. On overflow the table is cleared wholesale:
// correct peers re-serve on the next retry, so an attacker must win the
// refill race on every round forever to starve a fetch — and can never
// corrupt one (installs still need t+1 matching senders).
const maxCandidates = 32

// EncodeTransfer wraps a snapshot and the retained entry suffix captured
// at its boundary into one self-validating wire payload:
//
//	SHA-256 over everything after it (the corroboration digest)
//	u32 snapshot length ‖ snapshot bytes (sm encodeSnapshot layout)
//	u32 entry count, then per entry: u64 index ‖ u64 instance ‖
//	u32 command length ‖ command bytes
//
// The retained suffix travels because it IS log state: it is the
// content-dedup window every replica carries forward from the boundary,
// and a receiver without it would commit the next in-flight duplicate
// its peers skip. Both parts are pure functions of the committed prefix,
// so every correct replica produces byte-identical payloads for the same
// boundary — which is what lets the requester corroborate them by
// digest across t+1 senders.
func EncodeTransfer(s Snapshot, retained []log.Entry) types.Value {
	size := transferDigestLen + 4 + len(s.Data) + 4
	for _, e := range retained {
		size += 20 + len(e.Cmd)
	}
	buf := make([]byte, transferDigestLen, size)
	var u [8]byte
	binary.LittleEndian.PutUint32(u[:4], uint32(len(s.Data)))
	buf = append(buf, u[:4]...)
	buf = append(buf, s.Data...)
	binary.LittleEndian.PutUint32(u[:4], uint32(len(retained)))
	buf = append(buf, u[:4]...)
	for _, e := range retained {
		binary.LittleEndian.PutUint64(u[:], uint64(e.Index))
		buf = append(buf, u[:]...)
		binary.LittleEndian.PutUint64(u[:], uint64(e.Instance))
		buf = append(buf, u[:]...)
		binary.LittleEndian.PutUint32(u[:4], uint32(len(e.Cmd)))
		buf = append(buf, u[:4]...)
		buf = append(buf, e.Cmd...)
	}
	digest := sha256.Sum256(buf[transferDigestLen:])
	copy(buf[:transferDigestLen], digest[:])
	return types.Value(buf)
}

// DecodeTransfer parses and validates a SNAP_RESP payload: the body must
// hash to the carried digest, the snapshot header must decode, and the
// entry list must be well-formed. The bytes may come from a Byzantine
// peer, so every failure is a normal error, never a panic. The returned
// digest is the payload digest (over snapshot AND entries) — the
// corroboration key; the Snapshot's own Digest field is recomputed from
// its bytes.
func DecodeTransfer(v types.Value) (s Snapshot, retained []log.Entry, payload [32]byte, err error) {
	b := []byte(v)
	if len(b) < transferDigestLen+8+snapHeaderLen {
		return s, nil, payload, fmt.Errorf("sm: transfer frame of %d bytes is too short", len(b))
	}
	copy(payload[:], b[:transferDigestLen])
	body := b[transferDigestLen:]
	if sha256.Sum256(body) != payload {
		return s, nil, payload, fmt.Errorf("sm: transfer body does not hash to its digest")
	}
	snapLen := binary.LittleEndian.Uint32(body)
	rest := body[4:]
	if uint64(snapLen) > uint64(len(rest)) {
		return s, nil, payload, fmt.Errorf("sm: snapshot length %d exceeds payload", snapLen)
	}
	s.Data = rest[:snapLen]
	rest = rest[snapLen:]
	s.Digest = sha256.Sum256(s.Data)
	if s.Index, s.Instance, _, err = DecodeSnapshot(s.Data); err != nil {
		return s, nil, payload, err
	}
	if len(rest) < 4 {
		return s, nil, payload, fmt.Errorf("sm: truncated entry count")
	}
	count := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if count > maxTransferEntries || uint64(count)*20 > uint64(len(rest)) {
		return s, nil, payload, fmt.Errorf("sm: entry count %d exceeds payload", count)
	}
	retained = make([]log.Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 20 {
			return s, nil, payload, fmt.Errorf("sm: truncated entry %d", i)
		}
		idx := binary.LittleEndian.Uint64(rest)
		inst := binary.LittleEndian.Uint64(rest[8:])
		cmdLen := binary.LittleEndian.Uint32(rest[16:])
		rest = rest[20:]
		if uint64(cmdLen) > uint64(len(rest)) {
			return s, nil, payload, fmt.Errorf("sm: entry %d command length %d exceeds payload", i, cmdLen)
		}
		if idx > 1<<62 || inst > 1<<62 {
			return s, nil, payload, fmt.Errorf("sm: entry %d position out of range", i)
		}
		retained = append(retained, log.Entry{
			Index:    int(idx),
			Instance: types.Instance(inst),
			Cmd:      types.Value(rest[:cmdLen]),
		})
		rest = rest[cmdLen:]
	}
	if len(rest) != 0 {
		return s, nil, payload, fmt.Errorf("sm: %d trailing bytes after transfer payload", len(rest))
	}
	return s, retained, payload, nil
}

// LogControl is the slice of the replicated-log engine Transfer drives:
// reading the apply/commit position, noticing the engine has closed or
// has nothing outstanding, and realigning it when a snapshot installs.
// log.Engine implements it.
type LogControl interface {
	// Applied returns the number of applied instances.
	Applied() types.Instance
	// Committed returns the number of committed commands (trimmed
	// included).
	Committed() int
	// Closed reports whether the engine stopped starting new instances.
	Closed() bool
	// Waiting reports whether the engine holds work past its apply point
	// (an open instance, a peer instance ahead, pending commands). The
	// stall probe only fires for a waiting engine: a paced engine with
	// nothing to do legitimately never advances.
	Waiting() bool
	// InstallSnapshot jumps the engine to a peer snapshot's boundary,
	// seeding its retained entries and content dedup from the transfer's
	// retained suffix.
	InstallSnapshot(boundary types.Instance, index int, retained []log.Entry) error
}

// TransferConfig assembles a Transfer.
type TransferConfig struct {
	// Env is the process environment (required).
	Env proto.Env
	// Applier is this replica's state-machine layer (required); it serves
	// its latest snapshot and installs fetched ones.
	Applier *Applier
	// Log is this replica's log engine (required).
	Log LogControl
	// Next receives every non-transfer message (required; normally the
	// log engine itself).
	Next proto.Handler
	// RetryEvery re-broadcasts the fetch request while a fetch is in
	// flight (default 25ms): responses can be lost, and peers at
	// different positions serve different snapshots until t+1 align.
	RetryEvery types.Duration
	// StallProbe is the cadence of the stall detector (default 50ms): if
	// the engine is open and waiting for work but the apply position has
	// not advanced since the previous probe, a fetch request goes out
	// even without inbound MaxLead pressure — the cluster may have
	// finished and gone quiet, leaving no message stream to trigger on.
	// 0 keeps the default; < 0 disables probing (pressure-only
	// triggering).
	StallProbe types.Duration
	// ServeEvery rate-limits responses per requester (default
	// RetryEvery/2): request spam must not amplify into snapshot floods.
	ServeEvery types.Duration
	// OnInstall, if non-nil, fires after each successful install.
	OnInstall func(s Snapshot)
	// Metrics, if non-nil, is the transfer telemetry bundle
	// (obs.NewTransferMetrics). Passive; never alters protocol behavior.
	Metrics *obs.TransferMetrics
}

// Transfer implements peer-to-peer snapshot state transfer for one
// replica. It wraps the replica's message path (proto.Handler): transfer
// frames are consumed, everything else forwards to Next. Like the rest
// of the stack it is single-threaded — all calls must come from the
// hosting runtime's event loop.
type Transfer struct {
	cfg TransferConfig

	fetching    bool
	fetchFrom   types.Instance // applied position when the fetch started
	idleRetries int            // retry firings since a response ahead of us arrived
	cancelRetry func()
	// candidates accumulates inline responses of the current and past
	// fetch rounds keyed by digest; senders is the corroboration set.
	// Entries for boundaries we have meanwhile passed are filtered at
	// install time, not eagerly.
	candidates map[[32]byte]*candidate
	// manifests is the chunked path's corroboration table, keyed by the
	// hash of the manifest ENCODING; same overflow defense as candidates.
	manifests map[[32]byte]*manifestCandidate
	// dl is the in-flight chunk download, nil when none.
	dl *download
	// chunkCache memoizes the chunk-serving state of the current
	// snapshot so acks do not re-encode the payload per window.
	chunkCache *serveChunks
	lastServed map[types.ProcID]types.Time
	lastAcked  map[types.ProcID]types.Time
	lastProbe  types.Instance // applied position at the previous probe

	requests  int
	served    int
	installs  int
	rejected  int
	chServed  int
	chRecv    int
	chRejects int
}

// candidate is one inline payload digest's corroboration state. A
// catch-up candidate also carries the entries past the snapshot and the
// frontier they reach; for a plain snapshot the suffix is empty and the
// frontier is the snapshot boundary.
type candidate struct {
	snap     Snapshot
	retained []log.Entry
	suffix   []log.Entry
	frontier types.Instance
	senders  map[types.ProcID]struct{}
}

// manifestCandidate is one manifest encoding's corroboration state.
// order records first-arrival order — the deterministic rotation list a
// download pulls servers from.
type manifestCandidate struct {
	key     [32]byte
	mf      Manifest
	senders map[types.ProcID]struct{}
	order   []types.ProcID
}

// download is the state of one in-flight chunked fetch.
type download struct {
	mf        Manifest
	key       [32]byte
	servers   []types.ProcID // corroborators, first-arrival order
	serverIdx int            // rotated when the retry timer finds no progress
	chunks    [][]byte
	have      int
	scan      int // firstMissing's monotone scan pointer
	ackedEnd  int // end of the last requested range
	lastHave  int // have at the previous retry firing
	stalls    int // consecutive retry firings with no new chunk
}

// firstMissing returns the lowest un-received chunk index, -1 when the
// download is complete.
func (d *download) firstMissing() int {
	for d.scan < len(d.chunks) && d.chunks[d.scan] != nil {
		d.scan++
	}
	if d.scan == len(d.chunks) {
		return -1
	}
	return d.scan
}

// serveChunks is the serve-side cache of the current snapshot's chunked
// form.
type serveChunks struct {
	snapDigest [32]byte // which snapshot this cache was built from
	payload    []byte
	manifest   types.Value // form-tagged SNAP_RESP value
	digest     [32]byte    // payload digest (the key acks carry)
	count      int
	instance   types.Instance
}

var _ proto.Handler = (*Transfer)(nil)

// NewTransfer wires a Transfer and arms its stall probe.
func NewTransfer(cfg TransferConfig) (*Transfer, error) {
	if cfg.Env == nil || cfg.Applier == nil || cfg.Log == nil || cfg.Next == nil {
		return nil, fmt.Errorf("sm: transfer needs Env, Applier, Log and Next")
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 25 * time.Millisecond
	}
	if cfg.StallProbe == 0 {
		cfg.StallProbe = 50 * time.Millisecond
	}
	if cfg.ServeEvery <= 0 {
		cfg.ServeEvery = cfg.RetryEvery / 2
	}
	t := &Transfer{
		cfg:        cfg,
		candidates: make(map[[32]byte]*candidate),
		manifests:  make(map[[32]byte]*manifestCandidate),
		lastServed: make(map[types.ProcID]types.Time),
		lastAcked:  make(map[types.ProcID]types.Time),
	}
	if cfg.StallProbe > 0 {
		cfg.Env.SetTimer(cfg.StallProbe, t.probe)
	}
	return t, nil
}

// OnMessage implements proto.Handler: transfer frames are handled here,
// everything else forwards to the wrapped handler.
func (t *Transfer) OnMessage(from types.ProcID, m proto.Message) {
	switch m.Kind {
	case proto.MsgSnapRequest:
		t.serve(from, m.Instance)
	case proto.MsgSnapResponse:
		t.consider(from, m)
	case proto.MsgSnapAck:
		t.onAck(from, m)
	case proto.MsgSnapChunk:
		t.onChunk(from, m)
	default:
		t.cfg.Next.OnMessage(from, m)
	}
}

// OnDroppedAhead converts MaxLead drop pressure into a fetch trigger;
// wire it to log.Config.OnDroppedAhead. The engine only fires it for
// instances past applied+MaxLead, i.e. exactly when the cluster has
// outrun what replay can recover.
func (t *Transfer) OnDroppedAhead(i types.Instance) {
	t.startFetch()
}

// Fetch starts a fetch round now unless one is in flight: the boot
// query of a restarted replica. A paced cluster with no clients sends
// nothing, so a replica that restarts behind it sees neither MaxLead
// pressure nor a stall; it has to ask. A round that finds no snapshot
// ahead ends after TransferStallLimit retries (see armRetry), so asking
// a cluster that is not ahead costs a few requests.
func (t *Transfer) Fetch() { t.startFetch() }

// startFetch begins a fetch round unless one is already in flight.
func (t *Transfer) startFetch() {
	if t.fetching || t.cfg.Log.Closed() {
		return
	}
	t.fetching = true
	t.fetchFrom = t.cfg.Log.Applied()
	t.idleRetries = 0
	t.request()
	t.armRetry()
}

// request broadcasts one SNAP_REQ carrying our applied boundary.
func (t *Transfer) request() {
	t.requests++
	if m := t.cfg.Metrics; m != nil {
		m.Requests.Inc()
	}
	env := t.cfg.Env
	if trace.Recording(env.Trace()) {
		env.Trace().Emit(trace.Event{
			At: env.Now(), Kind: trace.KindSnapRequest, Proc: env.ID(),
			Aux: fmt.Sprintf("applied=%v", t.cfg.Log.Applied()),
		})
	}
	env.Broadcast(proto.Message{
		Kind:     proto.MsgSnapRequest,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: t.cfg.Log.Applied(),
	})
}

// armRetry schedules the next re-request of the in-flight fetch. The
// retry loop ends on install (stopFetch), on engine close, or when the
// apply position moves past the fetch's starting point on its own —
// progress means replay is working after all, and renewed pressure (or a
// renewed stall) simply starts a fresh fetch.
//
// The round also ends when TransferStallLimit consecutive firings pass
// without a single response ahead of our position: the peers have
// nothing newer (a quiet cluster at our own boundary declines silently),
// and re-asking every RetryEvery forever would be a request loop that
// never ends while the apply position stands still. Renewed pressure or
// a stall of a waiting engine starts a fresh round.
//
// With a chunk download in flight the retry re-acks the first missing
// range instead of re-broadcasting the request — that is the loss
// recovery path — and rotates to the next corroborating server first,
// so a server that withholds chunks (crashed or Byzantine) delays the
// download by one retry period, not forever. A download that makes NO
// progress for TransferStallLimit consecutive firings is presumed
// stale (the serve side drops acks for superseded payloads silently;
// see the constant's comment) and abandoned: its manifest candidate is
// dropped so only t+1 fresh senders can revive that exact payload, and
// a fresh SNAP_REQ re-corroborates whatever the cluster serves now.
func (t *Transfer) armRetry() {
	t.cancelRetry = t.cfg.Env.SetTimer(t.cfg.RetryEvery, func() {
		if !t.fetching || t.cfg.Log.Closed() || t.cfg.Log.Applied() > t.fetchFrom {
			t.fetching = false
			t.dl = nil
			return
		}
		if t.dl == nil {
			if t.idleRetries++; t.idleRetries >= TransferStallLimit {
				t.fetching = false
				return
			}
		}
		if d := t.dl; d != nil {
			if d.have == d.lastHave {
				d.stalls++
			} else {
				d.lastHave, d.stalls = d.have, 0
			}
			if d.stalls >= TransferStallLimit {
				delete(t.manifests, d.key)
				t.dl = nil
				t.idleRetries = 0
				t.request()
			} else {
				d.serverIdx = (d.serverIdx + 1) % len(d.servers)
				t.requestChunks()
			}
		} else {
			t.request()
		}
		t.armRetry()
	})
}

// probe is the stall detector: when the engine is open and waiting for
// work but the apply position froze between two probes, ask the cluster
// for a snapshot even without inbound pressure. This covers the
// end-game where the peers have finished (and gone quiet) while we
// still hold an unreachable gap: their FINAL snapshot is the convergence
// point, and nobody is sending the messages that would otherwise trigger
// a fetch. An engine with nothing outstanding is idle, not stalled — a
// paced cluster without clients never advances — so it is left alone.
// The probe re-arms until the engine closes, so an open laggard keeps
// pulling.
func (t *Transfer) probe() {
	if t.cfg.Log.Closed() {
		return // converged (or shut down): let the world drain
	}
	applied := t.cfg.Log.Applied()
	if applied == t.lastProbe && !t.fetching && t.cfg.Log.Waiting() {
		t.startFetch()
	}
	t.lastProbe = applied
	t.cfg.Env.SetTimer(t.cfg.StallProbe, t.probe)
}

// serve answers one SNAP_REQ: send our latest snapshot (with its
// retained suffix) iff it is ahead of the requester's boundary, at most
// once per ServeEvery per requester.
//
// When the snapshot is not ahead but our applied frontier is, and our
// engine is quiet (nothing open, nothing pending — Log.Waiting is
// false), we send a catch-up instead: the same snapshot and retained
// window plus every entry committed since it, and the frontier. A paced
// cluster goes quiet as soon as its clients do, so without this a
// replica that missed the last few instances before the quiet would
// wait for a snapshot that never comes. The caught-up correct replicas
// of a quiet cluster sit at the same frontier with the same entries, so
// their catch-ups are byte-identical and corroborate like snapshots
// (whatever t+1 replicas agree on is a genuine committed prefix); and
// since the requester ends up holding the same latest snapshot as its
// peers, snapshot cadence and the compaction it drives stay aligned.
// Catch-ups are served inline only (up to TransferInlineMax).
//
// Neither form re-stamps a snapshot at this replica's current position:
// a snapshot served is one every correct replica took at the same
// boundary (entry cadence, or sm.Config.RefreshEvery at deterministic
// instance boundaries), and a catch-up is only offered while quiet, so
// copies from correct peers corroborate byte for byte.
func (t *Transfer) serve(from types.ProcID, reqBoundary types.Instance) {
	snap, retained, ok := t.cfg.Applier.LatestTransfer()
	if !ok {
		return
	}
	catchUp := snap.Instance <= reqBoundary
	if catchUp && (t.cfg.Log.Applied() <= reqBoundary || t.cfg.Log.Waiting()) {
		return // nothing the requester doesn't already have, or not quiet
	}
	env := t.cfg.Env
	now := env.Now()
	if last, ok := t.lastServed[from]; ok && now-last < types.Time(t.cfg.ServeEvery) {
		return
	}
	t.lastServed[from] = now
	t.served++
	if m := t.cfg.Metrics; m != nil {
		m.Served.Inc()
	}
	if trace.Recording(env.Trace()) {
		env.Trace().Emit(trace.Event{
			At: now, Kind: trace.KindSnapServe, Proc: env.ID(), Peer: from,
			Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", snap.Index, snap.Instance, snap.Digest[:8]),
		})
	}
	var val types.Value
	inst := snap.Instance
	if catchUp {
		val, inst = t.catchUp(snap, retained), t.cfg.Log.Applied()
	} else if payload := []byte(EncodeTransfer(snap, retained)); len(payload) <= TransferInlineMax {
		// Small state: the historical single frame, form-tagged.
		val = InlineTransfer(types.Value(payload))
	} else if sc := t.serveChunksFor(snap, payload); sc != nil {
		val = sc.manifest
	}
	if val == "" {
		return // a catch-up past the inline bound, or a payload past the chunked one
	}
	env.Send(from, proto.Message{
		Kind:     proto.MsgSnapResponse,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: inst,
		Val:      val,
	})
}

// catchUp builds the form-2 SNAP_RESP value: the frontier, then the
// latest snapshot with its retained window and the entries since it. It
// returns "" when the engine's retained entries do not cover that suffix
// or the payload would not fit inline.
func (t *Transfer) catchUp(snap Snapshot, retained []log.Entry) types.Value {
	frontier := t.cfg.Log.Applied()
	suffix, ok := t.cfg.Applier.catchUpSuffix()
	if !ok {
		return ""
	}
	entries := append(append([]log.Entry(nil), retained...), suffix...)
	payload := EncodeTransfer(snap, entries)
	if len(payload) > TransferInlineMax {
		return ""
	}
	buf := make([]byte, 9, 9+len(payload))
	buf[0] = TransferFormCatchUp
	binary.LittleEndian.PutUint64(buf[1:], uint64(frontier))
	return types.Value(append(buf, payload...))
}

// InlineTransfer form-tags a complete transfer payload as a SNAP_RESP
// value (the small-state form the serve path sends; exported for tests
// and tooling that fabricate responses).
func InlineTransfer(payload types.Value) types.Value {
	buf := make([]byte, 1+len(payload))
	buf[0] = TransferFormInline
	copy(buf[1:], []byte(payload))
	return types.Value(buf)
}

// serveChunksFor returns (building and caching if needed) the chunk
// serving state of the given snapshot; nil if the payload cannot be
// chunked (past MaxManifestChunks).
func (t *Transfer) serveChunksFor(snap Snapshot, payload []byte) *serveChunks {
	if sc := t.chunkCache; sc != nil && sc.snapDigest == snap.Digest {
		return sc
	}
	mf, err := BuildManifest(snap.Index, snap.Instance, payload)
	if err != nil {
		return nil
	}
	body := EncodeManifest(mf)
	buf := make([]byte, 1+len(body))
	buf[0] = TransferFormManifest
	copy(buf[1:], body)
	t.chunkCache = &serveChunks{
		snapDigest: snap.Digest,
		payload:    payload,
		manifest:   types.Value(buf),
		digest:     mf.Payload,
		count:      mf.ChunkCount(),
		instance:   snap.Instance,
	}
	return t.chunkCache
}

// onAck serves one requested chunk range of the current snapshot's
// payload. A digest naming anything else is stale (the snapshot moved
// on) and is ignored without offense; the range is clamped, and acks are
// rate-limited per requester — one ack can yield at most
// TransferChunkWindow chunk frames, so the amplification is bounded
// both per message and per time.
func (t *Transfer) onAck(from types.ProcID, m proto.Message) {
	digest, f, w, err := DecodeAck(m.Val)
	if err != nil {
		t.rejectChunk()
		return
	}
	snap, retained, ok := t.cfg.Applier.LatestTransfer()
	if !ok {
		return
	}
	sc := t.chunkCache
	if sc == nil || sc.snapDigest != snap.Digest {
		payload := []byte(EncodeTransfer(snap, retained))
		if len(payload) <= TransferInlineMax {
			return // current snapshot is inline-sized; no chunks to serve
		}
		if sc = t.serveChunksFor(snap, payload); sc == nil {
			return
		}
	}
	if digest != sc.digest {
		return // stale ack for a superseded snapshot
	}
	env := t.cfg.Env
	now := env.Now()
	ackEvery := t.cfg.ServeEvery / 4
	if last, ok := t.lastAcked[from]; ok && now-last < types.Time(ackEvery) {
		return
	}
	t.lastAcked[from] = now
	end := f + w
	if end > sc.count {
		end = sc.count
	}
	for i := f; i < end; i++ {
		lo := i * TransferChunkSize
		hi := lo + TransferChunkSize
		if hi > len(sc.payload) {
			hi = len(sc.payload)
		}
		env.Send(from, proto.Message{
			Kind:     proto.MsgSnapChunk,
			Tag:      proto.Tag{Mod: proto.ModSnap},
			Instance: sc.instance,
			Val:      EncodeChunk(sc.digest, i, sc.payload[lo:hi]),
		})
		t.chServed++
		if mm := t.cfg.Metrics; mm != nil {
			mm.ChunksServed.Inc()
		}
	}
}

// consider dispatches one SNAP_RESP on its form tag: inline payloads
// corroborate and install directly, manifests corroborate and then
// start a chunk download.
func (t *Transfer) consider(from types.ProcID, m proto.Message) {
	b := []byte(m.Val)
	if len(b) == 0 {
		t.reject()
		return
	}
	switch b[0] {
	case TransferFormInline:
		t.considerInline(from, types.Value(b[1:]), m.Instance)
	case TransferFormManifest:
		t.considerManifest(from, b[1:], m.Instance)
	case TransferFormCatchUp:
		t.considerCatchUp(from, b, m.Instance)
	default:
		t.reject()
	}
}

// considerInline validates one inline payload and installs once t+1
// distinct peers corroborate the same payload digest (snapshot AND
// retained suffix).
func (t *Transfer) considerInline(from types.ProcID, v types.Value, inst types.Instance) {
	s, retained, payload, err := DecodeTransfer(v)
	if err != nil || s.Instance != inst {
		t.reject()
		return
	}
	// Stale iff it advances neither position. An equal entry index with a
	// later boundary is NOT stale: that is an idle cluster's refreshed
	// snapshot (sm.Config.RefreshEvery), and adopting it is exactly how a
	// rejoiner escapes the idle-rejoin gap. s.Instance > Log.Applied()
	// implies it is also past our own snapshot boundary (a boundary never
	// exceeds the applied frontier), so Install's equality guard holds.
	if s.Instance <= t.cfg.Log.Applied() || s.Index < t.cfg.Applier.Applied() {
		return // stale by the time it arrived; not an offense
	}
	t.idleRetries = 0
	t.corroborate(from, payload, &candidate{snap: s, retained: retained, frontier: s.Instance})
}

// considerCatchUp validates one catch-up response (form 2: frontier,
// then a transfer payload whose entries run past the snapshot index) and
// installs once t+1 distinct peers sent byte-identical values. The
// entries must split into a window ending just below the snapshot index
// and a suffix contiguous from it, in instance order below the frontier.
func (t *Transfer) considerCatchUp(from types.ProcID, b []byte, inst types.Instance) {
	if len(b) < 9 {
		t.reject()
		return
	}
	frontier := types.Instance(binary.LittleEndian.Uint64(b[1:]))
	s, entries, _, err := DecodeTransfer(types.Value(b[9:]))
	if err != nil || frontier != inst || frontier <= s.Instance {
		t.reject()
		return
	}
	k := 0
	for k < len(entries) && entries[k].Index < s.Index {
		k++
	}
	window, suffix := entries[:k], entries[k:]
	prev := s.Instance
	for j, e := range suffix {
		if e.Index != s.Index+j || e.Instance < prev || e.Instance >= frontier {
			t.reject()
			return
		}
		prev = e.Instance
	}
	if frontier <= t.cfg.Log.Applied() || s.Index+len(suffix) < t.cfg.Applier.Applied() {
		return // stale by the time it arrived; not an offense
	}
	t.idleRetries = 0
	c := &candidate{snap: s, retained: window, suffix: suffix, frontier: frontier}
	t.corroborate(from, sha256.Sum256(b), c)
}

// corroborate records from as a sender of the candidate keyed by key
// (fresh is used when the key is new) and installs it at t+1 distinct
// senders.
func (t *Transfer) corroborate(from types.ProcID, key [32]byte, fresh *candidate) {
	c := t.candidates[key]
	if c == nil {
		if len(t.candidates) >= maxCandidates {
			t.candidates = make(map[[32]byte]*candidate)
			t.reject()
		}
		c = fresh
		c.senders = make(map[types.ProcID]struct{})
		t.candidates[key] = c
	}
	c.senders[from] = struct{}{}
	if len(c.senders) < t.cfg.Env.Params().T+1 {
		return
	}
	if len(c.suffix) > 0 || c.frontier != c.snap.Instance {
		t.installCatchUp(c)
		return
	}
	t.install(c.snap, c.retained)
}

// considerManifest corroborates one manifest and, at t+1 matching
// senders, starts (or joins) the chunk download. The corroboration key
// is the hash of the manifest ENCODING, so any disagreement — position,
// length, a single chunk hash — forks the candidate.
func (t *Transfer) considerManifest(from types.ProcID, body []byte, inst types.Instance) {
	mf, err := DecodeManifest(body)
	if err != nil || mf.Instance != inst {
		t.reject()
		return
	}
	if mf.Instance <= t.cfg.Log.Applied() || mf.Index < t.cfg.Applier.Applied() {
		return // stale by the time it arrived; not an offense
	}
	t.idleRetries = 0
	key := sha256.Sum256(body)
	c := t.manifests[key]
	if c == nil {
		if len(t.manifests) >= maxCandidates {
			t.manifests = make(map[[32]byte]*manifestCandidate)
			t.reject()
		}
		c = &manifestCandidate{key: key, mf: mf, senders: make(map[types.ProcID]struct{})}
		t.manifests[key] = c
	}
	if _, dup := c.senders[from]; !dup {
		c.senders[from] = struct{}{}
		c.order = append(c.order, from)
	}
	if len(c.senders) < t.cfg.Env.Params().T+1 {
		return
	}
	t.startDownload(c)
}

// startDownload begins fetching a corroborated manifest's chunks, or
// adds new corroborators to the in-flight download. A corroborated
// manifest for a LATER boundary replaces an in-flight download — the
// cluster moved on and the old payload would be stale on arrival.
func (t *Transfer) startDownload(c *manifestCandidate) {
	if d := t.dl; d != nil {
		if d.key == c.key {
			d.servers = append([]types.ProcID(nil), c.order...)
			return
		}
		if d.mf.Instance >= c.mf.Instance {
			return
		}
	}
	t.dl = &download{
		mf:      c.mf,
		key:     c.key,
		servers: append([]types.ProcID(nil), c.order...),
		chunks:  make([][]byte, c.mf.ChunkCount()),
	}
	t.requestChunks()
}

// requestChunks acks the next missing range to the download's current
// server. The window is fixed; the server clamps the end.
func (t *Transfer) requestChunks() {
	d := t.dl
	if d == nil {
		return
	}
	f := d.firstMissing()
	if f < 0 {
		return
	}
	d.ackedEnd = f + TransferChunkWindow
	t.cfg.Env.Send(d.servers[d.serverIdx], proto.Message{
		Kind:     proto.MsgSnapAck,
		Tag:      proto.Tag{Mod: proto.ModSnap},
		Instance: d.mf.Instance,
		Val:      EncodeAck(d.mf.Payload, f, TransferChunkWindow),
	})
}

// onChunk stores one chunk of the in-flight download. Chunks for no (or
// a superseded) download are stale, not offenses; a chunk whose length
// or hash contradicts the corroborated manifest is a forgery and is
// counted. When the window completes the next range is acked; when the
// payload completes it is assembled and installed.
func (t *Transfer) onChunk(from types.ProcID, m proto.Message) {
	digest, idx, data, err := DecodeChunk(m.Val)
	if err != nil {
		t.rejectChunk()
		return
	}
	d := t.dl
	if d == nil || digest != d.mf.Payload {
		return // stale (download done or replaced)
	}
	if idx >= d.mf.ChunkCount() || len(data) != d.mf.ChunkLen(idx) ||
		sha256.Sum256(data) != d.mf.Hashes[idx] {
		t.rejectChunk()
		return
	}
	if d.chunks[idx] != nil {
		return // duplicate delivery (re-requested range overlap)
	}
	d.chunks[idx] = append([]byte(nil), data...)
	d.have++
	t.chRecv++
	if mm := t.cfg.Metrics; mm != nil {
		mm.ChunksReceived.Inc()
	}
	if d.have == d.mf.ChunkCount() {
		t.assemble(d)
		return
	}
	if f := d.firstMissing(); f >= d.ackedEnd {
		t.requestChunks()
	}
}

// assemble concatenates a complete download, re-validates it end to end
// (payload digest, decode, position against the manifest), and installs.
// The t+1-corroborated manifest pinned every chunk hash, so a failure
// past this point means corroboration itself was subverted — count it
// and drop, never install.
func (t *Transfer) assemble(d *download) {
	t.dl = nil
	payload := make([]byte, 0, d.mf.TotalLen)
	for _, c := range d.chunks {
		payload = append(payload, c...)
	}
	if sha256.Sum256(payload) != d.mf.Payload {
		t.reject()
		return
	}
	s, retained, _, err := DecodeTransfer(types.Value(payload))
	if err != nil || s.Index != d.mf.Index || s.Instance != d.mf.Instance {
		t.reject()
		return
	}
	if s.Instance <= t.cfg.Log.Applied() || s.Index < t.cfg.Applier.Applied() {
		return // overtaken while downloading; not an offense
	}
	t.install(s, retained)
}

// rejectChunk counts one discarded chunk-protocol frame.
func (t *Transfer) rejectChunk() {
	t.chRejects++
	if mm := t.cfg.Metrics; mm != nil {
		mm.ChunkRejected.Inc()
	}
}

// install commits to a corroborated snapshot: state machine first
// (Applier.Install re-checks the digest end to end), then the ordering
// layer (LogControl.InstallSnapshot). The preconditions were checked in
// consider and Install re-validates, so a failure here means the machine
// itself misbehaved — the applier poisons itself and the hosting runtime
// surfaces it; the fetch stops either way.
func (t *Transfer) install(s Snapshot, retained []log.Entry) {
	if err := t.cfg.Applier.Install(s, retained); err != nil {
		t.reject()
		t.stopFetch()
		return
	}
	if err := t.cfg.Log.InstallSnapshot(s.Instance, s.Index, retained); err != nil {
		// Unreachable when Applier and Log were aligned (consider checked
		// both positions); count it rather than hide it.
		t.reject()
		t.stopFetch()
		return
	}
	t.installed(s)
}

// installed finishes a successful install: counters, trace, a clean
// candidate slate, and a follow-up fetch round. The follow-up matters
// for a paced cluster: the snapshot just installed may trail the
// cluster's frontier by instances this replica never saw, and if the
// cluster has gone quiet nothing else would reveal that; a round that
// finds nothing ahead ends after TransferStallLimit retries.
func (t *Transfer) installed(s Snapshot) {
	t.installs++
	if m := t.cfg.Metrics; m != nil {
		m.Installs.Inc()
	}
	env := t.cfg.Env
	if trace.Recording(env.Trace()) {
		env.Trace().Emit(trace.Event{
			At: env.Now(), Kind: trace.KindSnapInstall, Proc: env.ID(),
			Aux: fmt.Sprintf("idx=%d inst=%v digest=%x", s.Index, s.Instance, s.Digest[:8]),
		})
	}
	// Candidates at or below the installed boundary are dead; drop
	// everything — fresher ones will re-accumulate if we are still
	// behind, and keeping stale data only risks re-counting old senders.
	t.candidates = make(map[[32]byte]*candidate)
	t.manifests = make(map[[32]byte]*manifestCandidate)
	t.stopFetch()
	if t.cfg.OnInstall != nil {
		t.cfg.OnInstall(s)
	}
	t.startFetch()
}

// installCatchUp commits to a corroborated catch-up: the applier takes
// the snapshot (if it is behind it) and the suffix, then the ordering
// layer jumps to the frontier with the whole entry run as its dedup
// window — exactly the window the serving peers hold.
func (t *Transfer) installCatchUp(c *candidate) {
	if err := t.cfg.Applier.CatchUp(c.snap, c.retained, c.suffix, c.frontier); err != nil {
		t.reject()
		t.stopFetch()
		return
	}
	entries := append(append([]log.Entry(nil), c.retained...), c.suffix...)
	if err := t.cfg.Log.InstallSnapshot(c.frontier, c.snap.Index+len(c.suffix), entries); err != nil {
		t.reject()
		t.stopFetch()
		return
	}
	t.installed(c.snap)
}

// reject counts one discarded candidate payload.
func (t *Transfer) reject() {
	t.rejected++
	if m := t.cfg.Metrics; m != nil {
		m.Rejected.Inc()
	}
}

// stopFetch ends the in-flight fetch round and any chunk download.
func (t *Transfer) stopFetch() {
	t.fetching = false
	t.dl = nil
	if t.cancelRetry != nil {
		t.cancelRetry()
		t.cancelRetry = nil
	}
}

// Requests returns how many SNAP_REQ broadcasts went out.
func (t *Transfer) Requests() int { return t.requests }

// Served returns how many snapshots this replica served to peers.
func (t *Transfer) Served() int { return t.served }

// Installs returns how many corroborated snapshots were installed.
func (t *Transfer) Installs() int { return t.installs }

// Rejected returns how many responses failed validation (bad digest,
// malformed bytes, or an install-time inconsistency).
func (t *Transfer) Rejected() int { return t.rejected }

// ChunksServed returns how many chunk frames this replica sent.
func (t *Transfer) ChunksServed() int { return t.chServed }

// ChunksReceived returns how many chunk frames were accepted into a
// download.
func (t *Transfer) ChunksReceived() int { return t.chRecv }

// ChunkRejected returns how many chunk-protocol frames were discarded
// (malformed, forged hash, off-manifest range).
func (t *Transfer) ChunkRejected() int { return t.chRejects }

// Downloading reports whether a chunk download is in flight (test and
// introspection hook).
func (t *Transfer) Downloading() bool { return t.dl != nil }
