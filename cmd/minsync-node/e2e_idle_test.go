package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestE2EIdleClusterQuiet pins demand-paced instance opening on a live
// cluster: four durable KV replicas with no clients run no consensus at
// all. After the start delay and two idle seconds, no replica has
// applied an instance and none has sent a consensus frame — the only
// traffic is the boot query of the snapshot-transfer layer (SNAP_REQ),
// which ends on its own. Skipped under -short.
func TestE2EIdleClusterQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e idle cluster test skipped in -short mode")
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

	procs := make([]*exec.Cmd, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i+1),
			"-peers", peerList,
			"-t", "1",
			"-kv",
			"-kv-listen", kvAddrs[i],
			"-metrics", metricsAddrs[i],
			"-data-dir", filepath.Join(dir, fmt.Sprintf("data%d", i+1)),
			"-start-in", "1s",
			"-wait", "60s",
		)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i+1, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for i, addr := range metricsAddrs {
		if _, err := httpGet(t, "http://"+addr+"/statusz", deadline); err != nil {
			t.Fatalf("replica %d /statusz: %v", i+1, err)
		}
	}
	// The engines start after -start-in; then two idle seconds.
	time.Sleep(3 * time.Second)

	for i, addr := range metricsAddrs {
		body, err := httpGet(t, "http://"+addr+"/metrics", deadline)
		if err != nil {
			t.Fatalf("replica %d /metrics: %v", i+1, err)
		}
		if v, ok := metricValue(body, "minsync_log_applied_instances"); !ok || v != 0 {
			t.Errorf("replica %d applied %v instances while idle (present %v), want 0", i+1, v, ok)
		}
		sent := 0
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, `minsync_wire_frames_total{dir="sent",kind="`) {
				continue
			}
			if strings.Contains(line, `kind="SNAP_`) {
				continue // the boot query
			}
			sent++
			if !strings.HasSuffix(line, " 0") {
				t.Errorf("replica %d sent consensus frames while idle: %s", i+1, line)
			}
		}
		if sent == 0 {
			t.Errorf("replica %d /metrics has no per-kind sent frame counters", i+1)
		}
	}
}

// metricValue returns the value of an unlabeled Prometheus sample.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
