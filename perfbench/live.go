package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// liveT is the fault budget of the live cluster (n = 4, t = 1).
const liveT = 1

// startIn is the replicas' -start-in: how long each waits before opening
// its pipeline. Loopback peers are up within milliseconds, so the
// shipped 2 s default would only add a constant sleep to setup_s.
const startIn = 250 * time.Millisecond

// children tracks every replica process this benchmark started, so all
// of them are killed and waited for on every exit path.
var children = struct {
	sync.Mutex
	m map[*replica]struct{}
}{m: map[*replica]struct{}{}}

// reapAll kills and waits for every replica still running.
func reapAll() {
	children.Lock()
	rs := make([]*replica, 0, len(children.m))
	for r := range children.m {
		rs = append(rs, r)
	}
	children.Unlock()
	for _, r := range rs {
		r.kill()
	}
}

// replica is one minsync-node process slot: its addresses and data
// directory survive a kill, so a restart resumes the same replica.
type replica struct {
	id            int
	http, metrics string // host:port
	logPth        string
	dataDir       string
	args          []string

	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd has been waited for
}

// cluster is a live n-replica KV cluster on loopback TCP.
type cluster struct {
	bin    string
	reps   []*replica
	client *http.Client // benchmark-side probes: status, metrics, reads
}

// freePorts reserves k distinct loopback ports, then releases them for
// the replicas to bind. The ports lie below the kernel's ephemeral range,
// so no outgoing connection (a replica dialing its peers) can take one
// between the release and the replica's bind. The replicas' listeners
// set SO_REUSEADDR, so ports in TIME_WAIT from earlier runs are fine.
func freePorts(k int) ([]string, error) {
	lo := ephemeralLow()
	const base = 10000
	if lo <= base+k {
		return nil, fmt.Errorf("ephemeral port range starts at %d, no room below it", lo)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	var addrs []string
	for tries := 0; len(addrs) < k; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no %d free ports in %d..%d", k, base, lo-1)
		}
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+rng.Intn(lo-base)))
		if err != nil {
			continue
		}
		lns = append(lns, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// ephemeralLow is the first port of the kernel's ephemeral range.
func ephemeralLow() int {
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				return v
			}
		}
	}
	return 32768 // the Linux default
}

// newCluster lays out an n-replica cluster under dir with fresh ports.
// traced adds causal tracing (-trace-dir); /metrics and pprof are on in
// every run.
func newCluster(bin, dir string, n int, traced bool) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(3 * n)
	if err != nil {
		return nil, err
	}
	peers := strings.Join(ports[:n], ",")
	c := &cluster{bin: bin, client: &http.Client{Timeout: 10 * time.Second}}
	for i := 0; i < n; i++ {
		r := &replica{
			id: i + 1, http: ports[n+i], metrics: ports[2*n+i],
			logPth:  filepath.Join(dir, fmt.Sprintf("node%d.log", i+1)),
			dataDir: filepath.Join(dir, fmt.Sprintf("data%d", i+1)),
		}
		r.args = []string{
			"-id", strconv.Itoa(r.id), "-peers", peers, "-t", strconv.Itoa(liveT),
			"-kv", "-kv-listen", "127.0.0.1:0", "-http", r.http, "-metrics", r.metrics,
			"-data-dir", r.dataDir, "-start-in", startIn.String(),
		}
		if traced {
			traceDir := filepath.Join(dir, fmt.Sprintf("trace%d", r.id))
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return nil, err
			}
			r.args = append(r.args, "-trace-dir", traceDir)
		}
		c.reps = append(c.reps, r)
	}
	return c, nil
}

// start launches (or relaunches) one replica process.
func (c *cluster) start(r *replica) error {
	logf, err := os.OpenFile(r.logPth, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(c.bin, r.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig kills the replica should this process die without
	// reaping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start replica %d: %w", r.id, err)
	}
	r.cmd, r.exited = cmd, make(chan struct{})
	children.Lock()
	children.m[r] = struct{}{}
	children.Unlock()
	go func(done chan struct{}) {
		cmd.Wait()
		close(done)
	}(r.exited)
	return nil
}

// kill SIGKILLs the replica, if it is running, and waits until it has
// exited.
func (r *replica) kill() {
	children.Lock()
	_, running := children.m[r]
	delete(children.m, r)
	children.Unlock()
	if !running {
		return
	}
	r.cmd.Process.Signal(syscall.SIGKILL)
	<-r.exited
}

// stop kills every replica of the cluster.
func (c *cluster) stop() {
	for _, r := range c.reps {
		r.kill()
	}
}

// startAll launches every replica.
func (c *cluster) startAll() error {
	for _, r := range c.reps {
		if err := c.start(r); err != nil {
			return err
		}
	}
	return nil
}

// get fetches url and returns the body of a 200 answer.
func (c *cluster) get(url string) ([]byte, error) {
	resp, err := c.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// status reads the replica's /v1/status document.
func (c *cluster) status(r *replica) (map[string]any, error) {
	b, err := c.get("http://" + r.http + "/v1/status")
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("replica %d status: %w", r.id, err)
	}
	return doc, nil
}

// applied reads the replica's applied_entries.
func (c *cluster) applied(r *replica) (int64, error) {
	doc, err := c.status(r)
	if err != nil {
		return 0, err
	}
	v, ok := doc["applied_entries"].(float64)
	if !ok {
		return 0, fmt.Errorf("replica %d status has no applied_entries: %v", r.id, doc)
	}
	return int64(v), nil
}

// waitUp polls /v1/status until it answers, the replica exits, or the
// timeout passes.
func (c *cluster) waitUp(r *replica, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.status(r); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("replica %d never answered /v1/status: %v (log %s)", r.id, err, tail(r.logPth))
		}
		select {
		case <-r.exited:
			return fmt.Errorf("replica %d exited during start-up (log %s)", r.id, tail(r.logPth))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// metrics scrapes the replica's /metrics.
func (c *cluster) metrics(r *replica) (scrape, error) {
	resp, err := c.client.Get("http://" + r.metrics + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// tail returns the last lines of a replica log, for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// life accumulates one replica slot's counters over the measurement
// window, across a kill and restart: the /metrics deltas and /proc
// readings of every process that held the slot.
type life struct {
	base     scrape     // /metrics at the last mark or fold (current process)
	baseProc procSample // /proc at the last mark or fold (current process)
	last     scrape     // latest /metrics of the current process
	carried  scrape     // window deltas folded so far
	cpuTicks uint64     // CPU folded so far, in clock ticks
	wbytes   uint64     // storage writes folded so far
	hwmKB    uint64     // highest VmHWM seen
	rejected float64    // rejected frames of earlier processes
}

// retire closes the current process's life before a kill: its
// rejected-frame total carries over, since a restart resets the counter.
func (l *life) retire() {
	l.rejected += l.last.sum("minsync_wire_rejected_frames_total")
	l.last = nil
}

// mark records the window start for the current process of r.
func (c *cluster) mark(r *replica, l *life) error {
	s, err := c.metrics(r)
	if err != nil {
		return err
	}
	p, err := readProc(r.cmd.Process.Pid)
	if err != nil {
		return err
	}
	l.base, l.baseProc, l.last = s, p, s
	return nil
}

// restarted starts a new life: a restarted process counts from zero.
func (l *life) restarted() {
	l.base, l.baseProc, l.last = nil, procSample{}, nil
}

// fold closes the current process's share of the window into l.
func (c *cluster) fold(r *replica, l *life) error {
	s, err := c.metrics(r)
	if err != nil {
		return err
	}
	p, err := readProc(r.cmd.Process.Pid)
	if err != nil {
		return err
	}
	l.carried = add(l.carried, delta(l.base, s))
	l.cpuTicks += p.CPUTicks - l.baseProc.CPUTicks
	l.wbytes += p.WriteBytes - l.baseProc.WriteBytes
	l.hwmKB = max(l.hwmKB, p.HWMKB)
	l.base, l.baseProc, l.last = s, p, s
	return nil
}

// readKey reads key from the replica's applied state (GET
// /v1/kv/{key}); an absent key reads "".
func (c *cluster) readKey(r *replica, key string) (string, error) {
	b, err := c.get("http://" + r.http + "/v1/kv/" + key)
	var doc struct {
		Value string `json:"value"`
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if jerr := json.Unmarshal(b, &doc); jerr != nil {
		return "", fmt.Errorf("read %s on replica %d: %v (%v)", key, r.id, err, jerr)
	}
	if err != nil && doc.Error.Code != "NOT_FOUND" {
		return "", fmt.Errorf("read %s on replica %d: %w", key, r.id, err)
	}
	return doc.Value, nil
}
