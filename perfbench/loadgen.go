package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator speaks the HTTP/JSON contract of docs/api.md, as an
// external client would; it does not import the server's types.

type txReq struct {
	Client    uint64 `json:"client"`
	Seq       uint64 `json:"seq"`
	Op        string `json:"op"`
	Key       string `json:"key"`
	Value     string `json:"value,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type txResp struct {
	Status string `json:"status"`
	Value  string `json:"value,omitempty"`
}

// opDeadline bounds one command, retries included; a command with no ok
// answer by then counts as failed.
const opDeadline = 20 * time.Second

// session is one client: a session id, one key it owns, and one
// keep-alive connection at a time to its current replica, initially its
// home. A command that fails there is retried, with the same (client,
// seq), on the session's next replica, which then becomes current: like
// a client with connection affinity, a session stays where it last got
// an answer, until it is sent home (see home).
type session struct {
	id   uint64
	key  string
	urls []string // base URLs; urls[0] is home
	cur  int      // index of the current replica
	// home, if set, is bumped when the session should return to its home
	// replica (after a failed replica has recovered); seen is the last
	// value the session acted on.
	home *atomic.Uint64
	seen uint64
	// busy, if set, holds the send time (Unix ns) of the session's request
	// in flight to the replica at watch, 0 when there is none.
	busy  *atomic.Int64
	watch string
	hc    *http.Client
	rng   *rand.Rand
	seq   uint64
	acked string   // value of the last acknowledged put ("" = none yet)
	maybe []string // puts after it with unknown outcome (failed commands)

	lat      []float64   // ms per acknowledged command
	done     []time.Time // when each of them was acknowledged
	acks     int
	failed   int
	retries  int
	wrongGet string // first get that contradicted the session's writes
}

// newSessions derives k sessions from the seed: ids, keys, values and
// homes. Session i's home is urls[i%len(urls)].
func newSessions(seed int64, k int, urls []string) []*session {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*session, k)
	for i := range out {
		id := rng.Uint64()>>1 | 1 // nonzero
		home := i % len(urls)
		order := append(slices.Clone(urls[home:]), urls[:home]...)
		out[i] = &session{
			id:   id,
			key:  fmt.Sprintf("k%x", id),
			urls: order,
			hc: &http.Client{
				Timeout:   opDeadline,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			rng: rand.New(rand.NewSource(int64(id))),
		}
	}
	return out
}

// close drops the session's idle connections.
func (s *session) close() { s.hc.CloseIdleConnections() }

// post sends one tx attempt and returns the HTTP status and answer.
func (s *session) post(url string, body []byte) (int, txResp, error) {
	if s.busy != nil && url == s.watch {
		s.busy.Store(time.Now().UnixNano())
		defer s.busy.Store(0)
	}
	resp, err := s.hc.Post(url+"/v1/tx", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, txResp{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, txResp{}, err
	}
	var tr txResp
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &tr); err != nil {
			return resp.StatusCode, txResp{}, err
		}
	}
	return resp.StatusCode, tr, nil
}

// next runs the session's next command: puts and gets alternate, and
// every get is checked against the session's acknowledged writes. It
// returns whether the command was acknowledged; its latency is measured
// from `from` (the open loop passes the due time).
func (s *session) next(from time.Time) bool {
	if s.home != nil {
		if g := s.home.Load(); g != s.seen {
			s.seen, s.cur = g, 0
		}
	}
	s.seq++
	req := txReq{Client: s.id, Seq: s.seq, Key: s.key, TimeoutMS: 10000}
	if s.seq%2 == 1 {
		req.Op, req.Value = "put", fmt.Sprintf("v%d-%x", s.seq, s.rng.Uint32())
	} else {
		req.Op = "get"
	}
	body, _ := json.Marshal(req)
	deadline := time.Now().Add(opDeadline)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			s.retries++
		}
		if time.Now().After(deadline) {
			s.failed++
			if req.Op == "put" {
				s.maybe = append(s.maybe, req.Value)
			}
			return false
		}
		at := (s.cur + attempt) % len(s.urls)
		code, tr, err := s.post(s.urls[at], body)
		if err == nil && code == http.StatusOK {
			s.cur = at
		}
		switch {
		case err == nil && code == http.StatusOK && (tr.Status == "ok" || req.Op == "get" && tr.Status == "not-found"):
			// A get answered not-found read a key no put has reached.
			now := time.Now()
			s.lat = append(s.lat, float64(now.Sub(from).Nanoseconds())/1e6)
			s.done = append(s.done, now)
			s.acks++
			s.observe(req, tr)
			return true
		case err == nil && code == http.StatusTooManyRequests:
			time.Sleep(50 * time.Millisecond) // shed: back off, then retry
		case err == nil && code == http.StatusGatewayTimeout:
			// Admitted but not answered in time: retry the same seq at
			// once; a replica answers from its pool or session cache.
		default:
			// Connection refused or reset (a killed replica), or a
			// replica that cannot serve: fail over after a short pause.
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// observe folds an acknowledged command into the session's model.
func (s *session) observe(req txReq, tr txResp) {
	if req.Op == "put" {
		s.acked, s.maybe = req.Value, nil
		return
	}
	if tr.Value == s.acked {
		s.maybe = nil
		return
	}
	if slices.Contains(s.maybe, tr.Value) {
		s.acked, s.maybe = tr.Value, nil
		return
	}
	if s.wrongGet == "" {
		s.wrongGet = fmt.Sprintf("session %x seq %d: get %s = %q, want %q", s.id, req.Seq, s.key, tr.Value, s.acked)
	}
}

// allowed reports whether v is a value the session's key may hold now.
func (s *session) allowed(v string) bool {
	return v == s.acked || slices.Contains(s.maybe, v)
}

// loadResult pools what the sessions saw.
type loadResult struct {
	lat       []float64
	done      []time.Time // acknowledgement time of each lat
	acks      int
	attempted int
	failed    int
	retries   int
	late      []float64 // open loop: generator lateness, ms per arrival
	start     time.Time
	elapsed   time.Duration
}

func pool(ss []*session) (loadResult, error) {
	var r loadResult
	for _, s := range ss {
		if s.wrongGet != "" {
			return r, fmt.Errorf("read check: %s", s.wrongGet)
		}
		r.lat = append(r.lat, s.lat...)
		r.done = append(r.done, s.done...)
		r.acks += s.acks
		r.failed += s.failed
		r.retries += s.retries
	}
	r.attempted = r.acks + r.failed
	return r, nil
}

// closedLoop runs every session back to back until the window ends: each
// sends its next command as soon as the previous one is answered.
func closedLoop(ss []*session, window time.Duration) (loadResult, error) {
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for time.Now().Before(end) {
				s.next(time.Now())
			}
		}(s)
	}
	wg.Wait()
	r, err := pool(ss)
	r.start, r.elapsed = start, time.Since(start)
	return r, err
}

// warmUp runs the sessions in a closed loop for d, then forgets their
// timings and counts; what they wrote still feeds the read checks. A
// failed command is an error: no replica is down yet.
func warmUp(ss []*session, d time.Duration) error {
	r, err := closedLoop(ss, d)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d commands failed", r.failed)
	}
	for _, s := range ss {
		s.lat, s.done, s.acks, s.retries = nil, nil, 0, 0
	}
	return nil
}

// openLoop issues commands on a fixed schedule regardless of answers:
// arrivals every 1/rate seconds with seeded jitter, run by the sessions
// as workers (one command in flight per session). Latency counts from
// each command's due time, so a stall also delays the arrivals queued
// behind it; the generator's own lateness is recorded separately.
func openLoop(ss []*session, rate float64, window time.Duration, seed int64) (loadResult, error) {
	rng := rand.New(rand.NewSource(seed))
	gap := time.Duration(float64(time.Second) / rate)
	var due []time.Duration
	for at := time.Duration(0); at < window; at += gap {
		due = append(due, at+time.Duration(rng.Int63n(int64(gap)/2)))
	}
	start := time.Now()
	jobs := make(chan time.Time, len(due)) // sized to the schedule: the generator never blocks
	late := make([]float64, 0, len(due))
	go func() {
		defer close(jobs)
		for _, d := range due {
			at := start.Add(d)
			time.Sleep(time.Until(at))
			late = append(late, float64(time.Since(at).Nanoseconds())/1e6)
			jobs <- at
		}
	}()
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for at := range jobs {
				s.next(at)
			}
		}(s)
	}
	wg.Wait()
	r, err := pool(ss)
	r.start, r.elapsed = start, time.Since(start)
	r.late = late
	return r, err
}
