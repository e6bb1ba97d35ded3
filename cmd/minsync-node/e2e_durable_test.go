package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a bytes.Buffer safe to read while os/exec's copier
// goroutine writes a running child's output into it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestE2EDurableRestart is the live-cluster pin for the durable-storage
// path: a 4-replica KV cluster where replica 1 runs with -data-dir, a
// client session commits enough entries to stamp a snapshot, replica 1
// is SIGKILLed mid-service and restarted on the same directory — and it
// must come back from its OWN disk: the boot log reports the restored
// snapshot and WAL replay, the applied position returns to (at least)
// the pre-kill count, and the peer-transfer install counter stays at
// ZERO. Without -data-dir the identical choreography can only recover
// through a peer snapshot transfer; this test proves the disk path
// replaces it. Skipped under -short.
func TestE2EDurableRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e durable restart test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "minsync-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const n = 4
	consAddrs := reservePorts(t, n)
	kvAddrs := reservePorts(t, n)
	metricsAddrs := reservePorts(t, n)
	peerList := strings.Join(consAddrs, ",")
	dataDir := filepath.Join(dir, "replica1-data")

	// startReplica launches replica i+1; only replica 1 is durable, and
	// its stderr is captured so the boot log can be asserted on.
	startReplica := func(i int, stderr io.Writer) *exec.Cmd {
		args := []string{
			"-id", fmt.Sprint(i + 1),
			"-peers", peerList,
			"-t", "1",
			"-kv",
			"-kv-listen", kvAddrs[i],
			"-metrics", metricsAddrs[i],
			"-snapshot-every", "4",
			"-snapshot-refresh", "16",
			"-unit", "50ms",
			"-start-in", "1s",
			"-wait", "60s",
		}
		if i == 0 {
			args = append(args, "-data-dir", dataDir)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = io.Discard
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i+1, err)
		}
		return cmd
	}

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		procs[i] = startReplica(i, io.Discard)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	deadline := time.Now().Add(45 * time.Second)

	// Commit enough entries through replica 1 to cross the snapshot
	// cadence (6 sessioned ops, -snapshot-every 4): the stamped snapshot
	// plus the WAL suffix is what the restart must recover.
	runClient := func(clientID, ops string) string {
		var out []byte
		for {
			cl := exec.Command(bin,
				"-kv-client", kvAddrs[0],
				"-client-id", clientID,
				"-ops", ops,
				"-wait", "20s",
			)
			b, err := cl.CombinedOutput()
			if err == nil {
				out = b
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("kv client never succeeded: %v\n%s", err, b)
			}
			time.Sleep(300 * time.Millisecond)
		}
		return string(out)
	}
	if got := runClient("7", "put:a=1,put:b=2,put:c=3,put:d=4,put:e=5,get:a"); !strings.Contains(got, "1") {
		t.Fatalf("client did not read back: %s", got)
	}

	applied := func() float64 {
		body, err := httpGet(t, "http://"+metricsAddrs[0]+"/statusz", deadline)
		if err != nil {
			t.Fatalf("/statusz: %v", err)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/statusz not JSON: %v\n%s", err, body)
		}
		v, _ := doc["applied_entries"].(float64)
		return v
	}
	preKill := applied()
	if preKill < 6 {
		t.Fatalf("replica 1 applied %v entries before the kill, want >= 6", preKill)
	}

	// Power failure: SIGKILL gives the process no chance to flush
	// anything that was not already fsync'd.
	procs[0].Process.Kill()
	procs[0].Wait()
	procs[0] = nil

	// Restart on the same directory, capturing the boot log.
	var bootLog lockedBuffer
	procs[0] = startReplica(0, &bootLog)

	// The replica must return to its pre-kill applied position.
	deadline = time.Now().Add(45 * time.Second)
	for {
		if got := applied(); got >= preKill {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica stuck at %v/%v applied entries\nboot log:\n%s",
				applied(), preKill, bootLog.String())
		}
		time.Sleep(300 * time.Millisecond)
	}

	// ...from DISK: the boot log reports the recovery, and the transfer
	// install counter proves no peer snapshot was fetched.
	if !strings.Contains(bootLog.String(), "booted from "+dataDir) {
		t.Fatalf("no durable boot in the log:\n%s", bootLog.String())
	}
	if strings.Contains(bootLog.String(), "installed peer snapshot") {
		t.Fatalf("restart fell back to a peer transfer:\n%s", bootLog.String())
	}
	metrics, err := httpGet(t, "http://"+metricsAddrs[0]+"/metrics", deadline)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "minsync_transfer_installs_total") && !strings.HasSuffix(line, " 0") {
			t.Fatalf("peer transfer installed a snapshot on the durable replica: %s", line)
		}
	}

	// And the restarted replica still serves: a fresh session reads the
	// recovered state and writes through it. (A fresh client id — the
	// old session's sequence numbers are used up, and replaying them
	// would correctly be answered "stale".)
	if got := runClient("8", "get:e,put:f=6,get:f"); !strings.Contains(got, "5") || !strings.Contains(got, "6") {
		t.Fatalf("recovered replica lost state: %s", got)
	}
}
