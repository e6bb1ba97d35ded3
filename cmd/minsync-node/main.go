// Command minsync-node runs ONE consensus process over real TCP — start n
// of them (locally or on separate machines), each with the same peer list,
// and they reach Byzantine consensus.
//
// Single-shot mode (the paper's one-decision algorithm; n = 4, t = 1,
// four terminals):
//
//	minsync-node -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004 -t 1 -propose alpha
//	minsync-node -id 2 -peers ...same... -t 1 -propose beta
//	minsync-node -id 3 -peers ...same... -t 1 -propose alpha
//	minsync-node -id 4 -peers ...same... -t 1 -propose beta
//
// Each prints its decision and exits 0.
//
// Replicated-log mode (-log N): the processes run the multi-instance
// consensus pipeline of internal/log and totally order N commands
// (deterministically generated, modeling clients that broadcast requests
// to every replica). Each process prints the committed count, the number
// of consensus instances used, and a SHA-256 digest of the ordered log —
// identical digests across processes demonstrate the total order:
//
//	minsync-node -id 1 -peers ...as above... -t 1 -log 120 -batch 16 -pipeline 4
//	minsync-node -id 2 -peers ...same...     -t 1 -log 120 -batch 16 -pipeline 4
//	...
//
// Replicated-KV mode (-kv): each process additionally runs the
// state-machine stack (sm applier + kv store with client sessions,
// snapshots and log compaction) and serves client gets/puts over a
// separate TCP listener (-kv-listen). Reads are ordered through the log
// too, so answers are linearizable:
//
//	minsync-node -id 1 -peers ...as above... -t 1 -kv -kv-listen 127.0.0.1:9001
//	...
//	minsync-node -kv-client 127.0.0.1:9001 -client-id 7 -ops "put:user=ada,get:user"
//
// The client mode accepts several replica addresses; sending the same
// (client, seq) command to all of them demonstrates the session layer's
// exactly-once guarantee.
//
// The i-th peer address belongs to process i.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	stdlog "log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/log"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/rt"
	"repro/internal/types"
)

func main() {
	var (
		idF      = flag.Int("id", 0, "this process's id (1..n)")
		peersF   = flag.String("peers", "", "comma list of n host:port addresses; the i-th is process i")
		tF       = flag.Int("t", 1, "Byzantine fault budget (t < n/3)")
		mF       = flag.Int("m", 2, "distinct proposable values (single-shot mode)")
		propose  = flag.String("propose", "", "value to propose (required in single-shot mode)")
		logN     = flag.Int("log", 0, "replicated-log mode: totally order this many commands")
		batch    = flag.Int("batch", 16, "log/kv mode: max commands per batch")
		pipeline = flag.Int("pipeline", 4, "log/kv mode: consensus instances in flight")
		unit     = flag.Duration("unit", 50*time.Millisecond, "EA round timer unit")
		coalesce = flag.Bool("coalesce", true, "log/kv mode: batch RB echo/ready traffic into coalesced vector frames (rb.Relay)")
		wait     = flag.Duration("wait", 2*time.Minute, "give up after this long")
		startIn  = flag.Duration("start-in", 2*time.Second, "delay before proposing (lets peers come up)")

		metricsF    = flag.String("metrics", "", "serve /metrics, /statusz and /debug/pprof/ on this address (empty = off)")
		traceDir    = flag.String("trace-dir", "", "kv mode: attach causal command tracing and write flight-recorder dumps into this directory on a stall or lag signal (empty = off; merge dumps with minsync-trace)")
		snapRefresh = flag.Int("snapshot-refresh", 0, "kv mode: re-stamp the snapshot every N applied instances even when idle, so rejoining replicas always find a fresh transfer boundary (0 = off)")

		kvMode    = flag.Bool("kv", false, "replicated-KV mode: serve gets/puts over TCP")
		kvListen  = flag.String("kv-listen", "127.0.0.1:0", "kv mode: client listener address")
		dataDir   = flag.String("data-dir", "", "kv mode: durable storage directory — committed entries are write-ahead logged and snapshots stamped there, and a restart boots from it instead of asking peers (empty = volatile)")
		httpF     = flag.String("http", "", "kv mode: serve the HTTP/JSON API (/v1/tx, /v1/kv/{key}, /v1/status) on this address (empty = off)")
		poolCap   = flag.Int("pool", 1024, "kv mode: admission pool capacity (pending commands before load shedding)")
		kvTarget  = flag.Int("kv-target", 0, "kv mode: exit after applying this many commands (0 = serve until killed)")
		snapEvery = flag.Int("snapshot-every", 16, "kv mode: snapshot cadence in applied entries (0 = off)")
		compact   = flag.Bool("compact", true, "kv mode: retire pre-snapshot state after each snapshot")

		kvClient = flag.String("kv-client", "", "client mode: comma list of replica kv-listen addresses")
		clientID = flag.Uint64("client-id", 1, "client mode: session id (nonzero)")
		ops      = flag.String("ops", "", `client mode: op script, e.g. "put:k=v,get:k,del:k"`)
	)
	flag.Parse()
	if *kvClient != "" {
		if *clientID == 0 || *ops == "" {
			stdlog.Fatal("-kv-client needs a nonzero -client-id and an -ops script")
		}
		runKVClient(*kvClient, *clientID, *ops, *wait)
		return
	}
	if *logN <= 0 && !*kvMode && *propose == "" {
		stdlog.Fatal("-propose is required (or use -log N / -kv)")
	}
	peers := strings.Split(*peersF, ",")
	n := len(peers)
	if *idF < 1 || *idF > n {
		stdlog.Fatalf("-id must be in 1..%d", n)
	}
	params := types.Params{N: n, T: *tF, M: *mF}
	if err := params.Validate(*logN > 0 || *kvMode); err != nil {
		stdlog.Fatal(err)
	}
	self := types.ProcID(*idF)
	addrs := make(map[types.ProcID]string, n)
	for i, a := range peers {
		addrs[types.ProcID(i+1)] = strings.TrimSpace(a)
	}

	tel := newTelemetry(*metricsF, self, params)

	// The node exists before the listener: netx.Listen starts accepting
	// at once, and a peer's frame can reach Recv before Listen returns.
	// Its transport is bound right after (sendAdapter.tr); nothing sends
	// before node.Start, which runs later.
	out := &sendAdapter{}
	node, err := rt.NewNode(rt.NodeConfig{
		ID:        self,
		Params:    params,
		Transport: out,
		Trace:     tel.traceSink(),
		Metrics:   obs.NewNodeMetrics(tel.registry(), ""),
	})
	if err != nil {
		stdlog.Fatal(err)
	}

	tr, err := netx.Listen(netx.Config{
		Self:    self,
		Addrs:   addrs,
		Metrics: tel.wireMetrics(),
		Recv: func(from types.ProcID, m proto.Message) {
			// KV request frames are client vocabulary, never consensus
			// traffic: route them to the forward interceptor when one is
			// installed (kv mode) and drop them otherwise — letting one
			// into the dispatcher would consume the shared dedup identity
			// and silently swallow every later forward from that peer.
			if m.Kind == proto.MsgKVRequest {
				if f := kvForward.Load(); f != nil {
					(*f)(from, m)
				}
				return
			}
			node.Deliver(from, m)
		},
		Logf: stdlog.Printf,
	})
	if err != nil {
		stdlog.Fatal(err)
	}
	defer tr.Close()
	defer node.Stop()
	out.tr = tr

	if *kvMode {
		runKVServe(node, tr, tel, self, kvOptions{
			ClientAddr: *kvListen, HTTPAddr: *httpF, DataDir: *dataDir,
			Batch: *batch, Pipeline: *pipeline,
			SnapEvery: *snapEvery, SnapRefresh: *snapRefresh,
			PoolCap: *poolCap, Target: *kvTarget, Compact: *compact,
			Coalesce: *coalesce, TraceDir: *traceDir,
			Unit: *unit, Wait: *wait, StartIn: *startIn,
		})
		return
	}
	if *logN > 0 {
		runLogMode(node, tr, tel, self, *logN, *batch, *pipeline, *coalesce, *unit, *wait, *startIn)
		return
	}
	runSingleShot(node, tr, tel, self, *propose, *unit, *wait, *startIn)
}

// runSingleShot is the classic one-decision mode.
func runSingleShot(node *rt.Node, tr *netx.Transport, tel *telemetry, self types.ProcID, propose string, unit, wait, startIn time.Duration) {
	decided := make(chan types.Value, 1)
	var engine *core.Engine
	var engErr error
	node.Start(func(env proto.Env) proto.Handler {
		eng, err := core.New(core.Config{
			Env:       env,
			TimeUnit:  types.Duration(unit),
			RBMetrics: obs.NewRBMetrics(tel.registry(), ""),
			OnDecide: func(v types.Value) {
				select {
				case decided <- v:
				default:
				}
			},
		})
		if err != nil {
			engErr = err
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		engine = eng
		return eng
	})
	if engErr != nil {
		stdlog.Fatal(engErr)
	}

	wireNodeObs(node, tel)
	tel.setStatus(func() map[string]any {
		return probeStatus(node.Post, func() map[string]any {
			return map[string]any{"mode": "single-shot", "proposing": propose}
		})
	})
	stdlog.Printf("process %v listening on %s, proposing %q in %v", self, tr.Addr(), propose, startIn)
	time.Sleep(startIn)
	node.Post(func() {
		if err := engine.Propose(types.Value(propose)); err != nil {
			stdlog.Printf("propose: %v", err)
		}
	})

	select {
	case v := <-decided:
		fmt.Printf("process %v DECIDED %q (sent %d frames, received %d, rejected %d)\n",
			self, v, tr.Sent(), tr.Received(), tr.Rejected())
	case <-time.After(wait):
		stdlog.Printf("no decision within %v", wait)
		os.Exit(1)
	}
}

// runLogMode orders `target` commands through the replicated-log engine.
// Every process derives the same workload (clients broadcasting to all
// replicas), so identical digests across processes certify the order.
func runLogMode(node *rt.Node, tr *netx.Transport, tel *telemetry, self types.ProcID, target, batch, pipeline int, coalesce bool, unit, wait, startIn time.Duration) {
	cmds := make([]types.Value, target)
	for i := range cmds {
		cmds[i] = types.Value(fmt.Sprintf("cmd-%05d", i))
	}

	done := make(chan struct{})
	hash := sha256.New()
	var committed atomic.Int64
	var engine *log.Engine
	var engErr error
	start := time.Now()
	node.Start(func(env proto.Env) proto.Handler {
		cfg := log.Config{
			Env:       env,
			BatchSize: batch,
			Pipeline:  pipeline,
			Target:    target,
			// Live clusters run the message-complexity fast path: RB
			// echo/ready traffic rides coalesced vector frames (see
			// docs/rb-coalescing.md). -coalesce=false restores loose
			// messages for A/B comparison.
			Coalesce: coalesce,
			Metrics:  obs.NewLogMetrics(tel.registry(), ""),
			OnCommit: func(e log.Entry) {
				// Runs on the node's event loop; the counter is atomic
				// only because the timeout path below reads it from the
				// main goroutine.
				hash.Write([]byte(e.Cmd))
				hash.Write([]byte{0})
				if committed.Add(1) == int64(target) {
					close(done)
				}
			},
		}
		cfg.Engine.TimeUnit = types.Duration(unit)
		cfg.Engine.RBMetrics = obs.NewRBMetrics(tel.registry(), "")
		eng, err := log.New(cfg)
		if err != nil {
			engErr = err
			return proto.HandlerFunc(func(types.ProcID, proto.Message) {})
		}
		engine = eng
		return eng
	})
	if engErr != nil {
		stdlog.Fatal(engErr)
	}

	wireNodeObs(node, tel)
	tel.setStatus(func() map[string]any {
		return probeStatus(node.Post, func() map[string]any {
			return map[string]any{
				"mode":      "log",
				"committed": committed.Load(),
				"target":    target,
				"instances": engine.Applied(),
			}
		})
	})
	stdlog.Printf("process %v listening on %s, ordering %d commands (batch %d, pipeline %d) in %v",
		self, tr.Addr(), target, batch, pipeline, startIn)
	time.Sleep(startIn)
	node.Post(func() {
		for _, c := range cmds {
			if err := engine.Submit(c); err != nil {
				stdlog.Printf("submit: %v", err)
			}
		}
		if err := engine.Start(); err != nil {
			stdlog.Printf("start: %v", err)
		}
	})

	select {
	case <-done:
		var digest []byte
		instances := types.Instance(0)
		errCh := make(chan struct{})
		node.Post(func() {
			digest = hash.Sum(nil)
			instances = engine.Applied()
			close(errCh)
		})
		<-errCh
		elapsed := time.Since(start) - startIn
		fmt.Printf("process %v COMMITTED %d commands in %v instances, digest %x (%.0f cmds/sec, sent %d frames, received %d, rejected %d)\n",
			self, target, instances, digest, float64(target)/elapsed.Seconds(), tr.Sent(), tr.Received(), tr.Rejected())
	case <-time.After(wait):
		stdlog.Printf("committed only %d/%d within %v", committed.Load(), target, wait)
		os.Exit(1)
	}
}

// sendAdapter adapts *netx.Transport to rt.Transport.
type sendAdapter struct{ tr *netx.Transport }

func (a *sendAdapter) Send(to types.ProcID, m proto.Message) error {
	return a.tr.Send(to, m)
}
