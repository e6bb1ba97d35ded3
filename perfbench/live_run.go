package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/types"
)

const (
	// liveN is the live cluster size.
	liveN = 4
	// setupTimes is how often an untraced live run builds a cluster;
	// setup_s is the median, and the last cluster is the one measured.
	setupTimes = 5
	// crashRate is live-n4-crash's open-loop arrival rate, commands per
	// second: below what live-n4-closed sustains, so the loop measures
	// latency, not a growing backlog.
	crashRate = 25
	// syncCalls is how many timed AppendEntry+MarkApplied pairs the
	// traced live run makes against a store.File.
	syncCalls = 400
	// maxStarts bounds the supervised restart of the crashed replica.
	maxStarts = 5
	// crashCycles is how often live-n4-crash kills and restarts its
	// victim in one window.
	crashCycles = 8
	// warmUpFor is how long the sessions run, unmeasured, before a
	// window: a cluster fresh from set-up is slower for a few hundred ms.
	warmUpFor = time.Second
	// latSpans and latDrop shape live-n4-closed's commit latency: the
	// window is cut into latSpans spans and the latDrop slowest are left
	// out (see steadySummary), so a slow spell of the shared host covering
	// up to a third of the window does not move commit_p50_ms or
	// commit_p99_ms. live-n4-crash keeps every span: its kills are what
	// it measures.
	latSpans = 12
	latDrop  = 4
	// killAfter is how long a client request has been in flight to the
	// victim when live-n4-crash kills it, so every kill cuts one off and
	// the client fails over (see killInFlight).
	killAfter = 2 * time.Millisecond
)

// liveSessions is the live workloads' concurrency: one session per CPU,
// at least two.
func liveSessions() int { return max(2, runtime.NumCPU()) }

// livePlan describes one live workload.
type livePlan struct {
	name  string
	crash bool // open loop to two replicas, one killed and restarted
}

func runLiveClosed(env *benchEnv) (*outcome, error) {
	return runLive(env, livePlan{name: "live-n4-closed"})
}

func runLiveCrash(env *benchEnv) (*outcome, error) {
	return runLive(env, livePlan{name: "live-n4-crash", crash: true})
}

// runLive runs a live workload: untraced, it reports the end-to-end
// metrics; traced, it measures a window on an untraced cluster (for the
// overhead figure), then one on a traced cluster for the per-layer
// metrics. Both windows run the CPU profiles and the inbox sampler, so
// trace.overhead_frac compares tracing alone.
func runLive(env *benchEnv, plan livePlan) (*outcome, error) {
	if !env.trace {
		c, setups, first, err := setupCluster(env, "c", setupTimes, false)
		if err != nil {
			return nil, err
		}
		defer c.stop()
		w, err := measureLive(env, c, plan, first, false)
		if err != nil {
			return nil, err
		}
		m := w.endToEnd()
		m["setup_s"] = median(setups)
		report("%s: setup %.3f s (median of %d), %d/%d commands ok, %.1f cmd/s", plan.name, m["setup_s"], len(setups), w.load.acks, w.load.attempted, m["throughput_cmds_per_s"])
		return &outcome{Attempted: w.load.attempted, Failed: w.load.failed, Metrics: m}, nil
	}

	c, _, first, err := setupCluster(env, "u", 1, false)
	if err != nil {
		return nil, err
	}
	plain, err := measureLive(env, c, plan, first, true)
	c.stop()
	if err != nil {
		return nil, err
	}
	c, _, first, err = setupCluster(env, "t", 1, true)
	if err != nil {
		return nil, err
	}
	w, err := measureLive(env, c, plan, first, true)
	c.stop()
	if err != nil {
		return nil, err
	}
	m := w.perLayer()
	base := summarize(plain.load.lat, 0.99).P50
	m["trace.overhead_frac"] = ratio(summarize(w.load.lat, 0.99).P50-base, base)
	st, err := timeStoreSync(env.work, sampleEntry(env.seed))
	if err != nil {
		return nil, err
	}
	reportTiming("store.File AppendEntry+MarkApplied", st, "ms")
	m["store.sync_p50_ms"], m["store.sync_p99_ms"] = st.P50, st.Tail
	return &outcome{
		Attempted: plain.load.attempted + w.load.attempted,
		Failed:    plain.load.failed + w.load.failed,
		Metrics:   m,
	}, nil
}

// setupCluster builds a cluster `times` times, timing each from spawning
// the replicas to the first acknowledged command, and keeps the last one
// running. It also returns the session of that first command, whose key
// the final read-back checks.
func setupCluster(env *benchEnv, tag string, times int, traced bool) (*cluster, []float64, *session, error) {
	var setups []float64
	for k := 0; ; k++ {
		dir := filepath.Join(env.work, fmt.Sprintf("%s%d", tag, k))
		c, err := newCluster(env.node, dir, liveN, traced)
		if err != nil {
			return nil, nil, nil, err
		}
		first := newSessions(env.seed*7919+int64(k), 1, c.urls())[0]
		t0 := time.Now()
		if err := c.startAll(); err != nil {
			c.stop()
			return nil, nil, nil, err
		}
		for _, r := range c.reps {
			if err := c.waitUp(r, 30*time.Second); err != nil {
				c.stop()
				return nil, nil, nil, err
			}
		}
		if !first.next(t0) {
			c.stop()
			return nil, nil, nil, fmt.Errorf("setup: first command never acknowledged")
		}
		setups = append(setups, time.Since(t0).Seconds())
		first.close()
		if k == times-1 {
			return c, setups, first, nil
		}
		c.stop()
		os.RemoveAll(dir)
	}
}

// urls lists the replicas' HTTP base URLs.
func (c *cluster) urls() []string {
	out := make([]string, len(c.reps))
	for i, r := range c.reps {
		out[i] = "http://" + r.http
	}
	return out
}

// liveWindow is what one measurement window on a live cluster saw.
type liveWindow struct {
	load     loadResult
	lives    []*life
	c        *cluster
	victim   int     // index of the killed replica, -1 if none
	boot     float64 // median s from a restart to /v1/status answering
	recovery float64 // median s from a restart to catching up
	// bootFailures counts restarts of the victim that exited during
	// start-up before one came up.
	bootFailures int
	// bootWipes counts restarts that could not boot from the victim's
	// data directory, so it was emptied (see supervisedStart).
	bootWipes int
	// home sends the sessions back to their home replicas once the victim
	// has caught up, so every kill reaches clients.
	home atomic.Uint64
	// busy is the send time of a request in flight to the victim (see
	// session.busy).
	busy     atomic.Int64
	inboxMax float64
	profiles []*profile
}

// measureLive runs one measurement window and its correctness checks;
// sample adds the per-replica CPU profiles and the inbox-depth sampler.
func measureLive(env *benchEnv, c *cluster, plan livePlan, first *session, sample bool) (*liveWindow, error) {
	w := &liveWindow{c: c, victim: -1}
	urls := c.urls()
	var ss []*session
	if plan.crash {
		// Two target replicas; the second is killed and restarted.
		ss = newSessions(env.seed, liveSessions(), urls[:2])
		for _, s := range ss {
			s.home, s.busy, s.watch = &w.home, &w.busy, urls[1]
		}
		w.victim = 1
	} else {
		ss = newSessions(env.seed, liveSessions(), urls)
	}
	defer func() {
		for _, s := range ss {
			s.close()
		}
	}()
	if err := warmUp(ss, warmUpFor); err != nil {
		return nil, err
	}
	for _, r := range c.reps {
		l := &life{}
		if err := c.mark(r, l); err != nil {
			return nil, err
		}
		w.lives = append(w.lives, l)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	if sample {
		bg.Add(1)
		go func() {
			defer bg.Done()
			w.sampleInbox(stop)
		}()
		w.profileAll(&bg, env.seconds)
	}
	var crashErr error
	start := time.Now()
	crashDone := make(chan struct{})
	if plan.crash {
		go func() {
			defer close(crashDone)
			crashErr = w.crashAndRecover(start, env.seconds)
		}()
	} else {
		close(crashDone)
	}

	var err error
	if plan.crash {
		w.load, err = openLoop(ss, crashRate, env.seconds, env.seed)
	} else {
		w.load, err = closedLoop(ss, env.seconds)
	}
	<-crashDone
	close(stop)
	bg.Wait()
	if err != nil {
		return nil, err
	}
	if crashErr != nil {
		return nil, crashErr
	}
	for i, r := range c.reps {
		if err := c.fold(r, w.lives[i]); err != nil {
			return nil, err
		}
	}
	if err := w.check(append(ss, first)); err != nil {
		return nil, err
	}
	if w.load.acks == 0 {
		return nil, errors.New("no command acknowledged in the window")
	}
	return w, nil
}

// crashAndRecover splits the window into crashCycles equal cycles. In
// each, it SIGKILLs the victim a quarter into the cycle, restarts it from
// its own data directory an eighth of a cycle later, and times its boot
// and catch-up, then sends the sessions home; store.boot_s and recovery_s
// are the medians over cycles.
func (w *liveWindow) crashAndRecover(start time.Time, window time.Duration) error {
	c, r, l := w.c, w.c.reps[w.victim], w.lives[w.victim]
	cycle := window / crashCycles
	var boots, recoveries []float64
	for k := 0; k < crashCycles; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k)*cycle + cycle/4)))
		if err := c.fold(r, l); err != nil {
			return err
		}
		l.retire()
		w.killInFlight(r, cycle/8)
		time.Sleep(cycle / 8)
		var target int64
		for i, o := range c.reps {
			if i == w.victim {
				continue
			}
			a, err := c.applied(o)
			if err != nil {
				return err
			}
			target = max(target, a)
		}
		restart := time.Now()
		if err := w.supervisedStart(r); err != nil {
			return err
		}
		boots = append(boots, time.Since(restart).Seconds())
		l.restarted()
		for deadline := restart.Add(60 * time.Second); ; {
			a, err := c.applied(r)
			if err == nil && a >= target {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("restarted replica %d stuck at %d applied entries, others had %d (log %s)", r.id, a, target, tail(r.logPth))
			}
			time.Sleep(10 * time.Millisecond)
		}
		recoveries = append(recoveries, time.Since(restart).Seconds())
		w.home.Add(1)
	}
	report("crash: replica %d killed %d times, down %v each (%d failed starts, %d data directories emptied); /v1/status after %.3f s, caught up after %.3f s (medians)",
		r.id, crashCycles, cycle/8, w.bootFailures, w.bootWipes, median(boots), median(recoveries))
	w.boot, w.recovery = median(boots), median(recoveries)
	return nil
}

// killInFlight SIGKILLs the victim while a client request to it is in
// flight, killAfter after it was sent, waiting at most limit for one.
func (w *liveWindow) killInFlight(r *replica, limit time.Duration) {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(500 * time.Microsecond) {
		if t := w.busy.Load(); t != 0 && time.Since(time.Unix(0, t)) >= killAfter {
			break
		}
	}
	r.kill()
}

// supervisedStart restarts a killed replica as a process supervisor
// would: a process that exits during start-up is started again, up to
// maxStarts times. Each such exit is counted in store.boot_failures. A
// start that failed to boot from the replica's data directory is not
// retried on it: like an operator replacing a lost disk, the supervisor
// empties the directory and the replica rejoins from its peers
// (store.boot_wipes).
func (w *liveWindow) supervisedStart(r *replica) error {
	for starts := 1; ; starts++ {
		from := fileSize(r.logPth)
		if err := w.c.start(r); err != nil {
			return err
		}
		err := w.c.waitUp(r, 30*time.Second)
		if err == nil {
			return nil
		}
		select {
		case <-r.exited:
		default:
			return err
		}
		w.bootFailures++
		if starts == maxStarts {
			return err
		}
		r.kill()
		if line := bootError(r, from); line != "" {
			report("replica %d cannot boot from its data directory, emptied it: %s", r.id, line)
			w.bootWipes++
			if err := os.RemoveAll(r.dataDir); err != nil {
				return err
			}
		}
	}
}

// fileSize is the size of the file at path (0 if it cannot be read).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// bootError returns the line minsync-node logged, after offset from of
// its log, when it failed to boot from its data directory ("" if none).
func bootError(r *replica, from int64) string {
	b, err := os.ReadFile(r.logPth)
	if err != nil || int64(len(b)) < from {
		return ""
	}
	want := "boot from " + r.dataDir + ": "
	for _, line := range strings.Split(string(b[from:]), "\n") {
		if strings.Contains(line, want) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}

// sampleInbox polls every replica's rt inbox depth gauge until stop.
func (w *liveWindow) sampleInbox(stop <-chan struct{}) {
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, r := range w.c.reps {
			if s, err := w.c.metrics(r); err == nil {
				w.inboxMax = max(w.inboxMax, s.sum("minsync_rt_inbox_depth"))
			}
		}
	}
}

// profileAll starts one /debug/pprof/profile capture per replica,
// covering most of the window. A capture cut short by the crash is
// dropped.
func (w *liveWindow) profileAll(bg *sync.WaitGroup, window time.Duration) {
	secs := max(1, int(window.Seconds())-2)
	hc := &http.Client{Timeout: time.Duration(secs)*time.Second + 30*time.Second}
	var mu sync.Mutex
	for _, r := range w.c.reps {
		bg.Add(1)
		go func(addr string) {
			defer bg.Done()
			resp, err := hc.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if p, err := parsePprof(b); err == nil {
				mu.Lock()
				w.profiles = append(w.profiles, p)
				mu.Unlock()
			}
		}(r.metrics)
	}
}

// check is the live correctness gate: after the load drains, every
// replica reports the same applied_entries, every session's key reads
// back a value the session's acknowledged writes allow on every replica,
// and no replica rejected a frame.
func (w *liveWindow) check(ss []*session) error {
	c := w.c
	var counts []int64
	for deadline := time.Now().Add(30 * time.Second); ; {
		counts = counts[:0]
		same := true
		for _, r := range c.reps {
			a, err := c.applied(r)
			if err != nil {
				return err
			}
			if len(counts) > 0 && a != counts[0] {
				same = false
			}
			counts = append(counts, a)
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never agreed on applied_entries: %v", counts)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range ss {
		for _, r := range c.reps {
			v, err := c.readKey(r, s.key)
			if err != nil {
				return err
			}
			if !s.allowed(v) {
				return fmt.Errorf("replica %d lost an acknowledged write: %s = %q, want %q", r.id, s.key, v, s.acked)
			}
		}
	}
	if rej := w.rejected(); rej != 0 {
		return fmt.Errorf("replicas rejected %v frames", rej)
	}
	report("check: %d replicas at %d applied entries, %d keys read back on every replica, 0 rejected frames", len(c.reps), counts[0], len(ss))
	return nil
}

// rejected sums the wire layer's rejected-frame counters over every
// process that ran in the window.
func (w *liveWindow) rejected() float64 {
	var t float64
	for _, l := range w.lives {
		t += l.rejected + l.last.sum("minsync_wire_rejected_frames_total")
	}
	return t
}

// counters pools every replica's window deltas.
func (w *liveWindow) counters() scrape {
	var all scrape
	for _, l := range w.lives {
		all = add(all, l.carried)
	}
	return all
}

// endToEnd computes the untraced metrics of the window.
func (w *liveWindow) endToEnd() map[string]float64 {
	lat := w.commitLatency()
	acks := float64(w.load.acks)
	var ticks, hwm uint64
	for _, l := range w.lives {
		ticks += l.cpuTicks
		hwm = max(hwm, l.hwmKB)
	}
	return map[string]float64{
		"ok_frac":               ratio(acks, float64(w.load.attempted)),
		"commit_p50_ms":         lat.P50,
		"commit_p99_ms":         lat.Tail,
		"throughput_cmds_per_s": acks / w.load.elapsed.Seconds(),
		"cpu_ms_per_cmd":        float64(ticks) * 1000 / userHZ / acks,
		"rss_peak_mb":           float64(hwm) / 1024,
		"msgs_per_cmd":          w.counters().sum("minsync_wire_frames_total", "dir", "sent") / acks,
	}
}

// commitLatency summarizes the window's commit latencies: over the
// steadier spans on live-n4-closed, over the whole window on
// live-n4-crash.
func (w *liveWindow) commitLatency() summary {
	whole := summarize(slices.Clone(w.load.lat), 0.99)
	reportTiming("commit latency, whole window", whole, "ms")
	report("slowest commands, ms: %.1f", topK(w.load.lat, 12))
	if w.victim >= 0 {
		return whole
	}
	s, p90, dropped := steadySummary(w.load.lat, w.load.done, w.load.start, w.load.elapsed, latSpans, latDrop, 0.99)
	report("commit latency p90 per %.1f s span, ms: %.1f; left out: %v", w.load.elapsed.Seconds()/latSpans, p90, dropped)
	reportTiming(fmt.Sprintf("commit latency, steadiest %d of %d spans", latSpans-latDrop, latSpans), s, "ms")
	return s
}

// perLayer computes the traced metrics of the window.
func (w *liveWindow) perLayer() map[string]float64 {
	all := w.counters()
	acks := float64(w.load.acks)
	per := func(v float64) float64 { return v / acks }
	m := stageMetrics(all, 1e-6)
	// Instance counts are cluster-wide: read them on replica 1, which is
	// never restarted.
	r1 := w.lives[0].carried
	inst := r1.sum("minsync_log_applied_instances")
	m["log.instances_per_cmd"] = per(inst)
	m["log.noop_frac"] = ratio(r1.sum("minsync_log_noop_instances_total"), inst)
	countMetrics(m, all, acks)
	m["ea.bytes_per_cmd"] = per(all.sumPrefix("minsync_wire_bytes_total", "kind", "EA_", "dir", "sent"))
	m["txpool.deduped_per_cmd"] = per(all.sum("minsync_pool_deduped_total"))
	shed := all.sum("minsync_pool_shed_total")
	m["txpool.shed_frac"] = ratio(shed, shed+all.sum("minsync_pool_admitted_total"))
	m["loadgen.retries_per_cmd"] = per(float64(w.load.retries))
	m["loadgen.whole_p99_ms"] = summarize(slices.Clone(w.load.lat), 0.99).Tail
	if len(w.load.late) > 0 {
		late := summarize(w.load.late, 0.99)
		reportTiming("generator lateness", late, "ms")
		m["loadgen.late_p99_ms"] = late.Tail
	}
	m["sm.snapshots_per_cmd"] = per(all.sum("minsync_sm_snapshots_total"))
	m["sm.snapshot_bytes_per_cmd"] = per(all.sum("minsync_sm_snapshot_bytes_total"))
	var wbytes uint64
	for _, l := range w.lives {
		wbytes += l.wbytes
	}
	m["store.write_bytes_per_cmd"] = per(float64(wbytes))
	if w.victim >= 0 {
		m["sm.transfer_installs"] = w.lives[w.victim].carried.sum("minsync_transfer_installs_total")
		m["store.boot_s"] = w.boot
		m["store.boot_failures"] = float64(w.bootFailures)
		m["store.boot_wipes"] = float64(w.bootWipes)
		m["recovery_s"] = w.recovery
	}
	m["wire.frames_per_cmd"] = per(all.sum("minsync_wire_frames_total", "dir", "sent"))
	m["wire.bytes_per_cmd"] = per(all.sum("minsync_wire_bytes_total", "dir", "sent"))
	m["netx.rejected_frames"] = w.rejected()
	m["rt.posted_per_cmd"] = per(all.sum("minsync_rt_posted_total"))
	m["rt.inbox_depth_max"] = w.inboxMax
	for k, v := range cpuShares(w.profiles) {
		m[k] = v
	}
	report("traced window: %d/%d commands ok, %d CPU profiles", w.load.acks, w.load.attempted, len(w.profiles))
	return m
}

// stageMetrics reads the five stage-latency histograms (nanoseconds)
// into <layer>.<stage>_p50_ms / _p99_ms, scaled by toMS.
func stageMetrics(all scrape, toMS float64) map[string]float64 {
	m := map[string]float64{}
	for _, st := range []struct{ stage, metric string }{
		{"respond", "httpapi.respond"},
		{"admit_wait", "txpool.admit_wait"},
		{"batch_wait", "log.batch_wait"},
		{"consensus", "core.consensus"},
		{"apply", "sm.apply"},
	} {
		b, cnt := all.histogram("minsync_stage_latency_ns", "stage", st.stage)
		s := histSummary(b, cnt, 0.99)
		if s.N == 0 {
			continue
		}
		s.P50, s.Tail = s.P50*toMS, s.Tail*toMS
		reportTiming("stage "+st.stage, s, "ms")
		m[st.metric+"_p50_ms"], m[st.metric+"_p99_ms"] = s.P50, s.Tail
	}
	return m
}

// countMetrics fills the per-command log, rb and dedup counts shared by
// the live and simulated workloads.
func countMetrics(m map[string]float64, all scrape, cmds float64) {
	per := func(v float64) float64 { return ratio(v, cmds) }
	proposed := all.sum("minsync_log_proposed_commands_total")
	m["log.cmds_per_proposal"] = ratio(proposed, all.sum("minsync_log_proposals_total"))
	m["log.useful_frac"] = ratio(cmds, proposed)
	m["rb.echoes_per_cmd"] = per(all.sum("minsync_rb_echoes_total"))
	m["rb.readies_per_cmd"] = per(all.sum("minsync_rb_readies_total"))
	m["rb.delivers_per_cmd"] = per(all.sum("minsync_rb_delivers_total"))
	m["rb.pulls_per_cmd"] = per(all.sum("minsync_rb_pulls_total"))
	m["rb.frame_entries_mean"] = ratio(all.sum("minsync_rb_frame_entries_sum"), all.sum("minsync_rb_frame_entries_count"))
	m["proto.dedup_dropped_per_cmd"] = per(all.sum("minsync_dedup_dropped_total"))
}

// sampleEntry is a log entry the size of the live workloads' puts.
func sampleEntry(seed int64) log.Entry {
	s := newSessions(seed, 1, []string{""})[0]
	cmd := kv.Command{Op: kv.OpPut, Client: s.id, Seq: 1001, Key: s.key, Val: fmt.Sprintf("v%d-%x", 1001, s.rng.Uint32())}
	return log.Entry{Cmd: cmd.Encode()}
}

// timeStoreSync times AppendEntry+MarkApplied pairs — one committed
// entry made durable — on a store.File in a fresh directory on the
// filesystem the replicas' data directories use.
func timeStoreSync(work string, e log.Entry) (summary, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return summary{}, err
	}
	defer os.RemoveAll(dir)
	f, err := store.OpenFile(dir)
	if err != nil {
		return summary{}, err
	}
	defer f.Close()
	lat := make([]float64, 0, syncCalls)
	for i := 0; i < syncCalls; i++ {
		e.Index, e.Instance = i, types.Instance(i)
		t0 := time.Now()
		if err := f.AppendEntry(e); err != nil {
			return summary{}, err
		}
		if err := f.MarkApplied(types.Instance(i + 1)); err != nil {
			return summary{}, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return summarize(lat, 0.99), nil
}
