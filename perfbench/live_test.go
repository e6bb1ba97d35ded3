package main

import (
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestFreePortsAreDistinctAndOutsideTheEphemeralRange(t *testing.T) {
	addrs, err := freePorts(12)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("port %s handed out twice", a)
		}
		seen[a] = true
		_, port, err := net.SplitHostPort(a)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := strconv.Atoi(port); p < 10000 || p >= ephemeralLow() {
			t.Errorf("port %d outside 10000..%d", p, ephemeralLow()-1)
		}
		l, err := net.Listen("tcp", a)
		if err != nil {
			t.Errorf("released port %s cannot be bound: %v", a, err)
			continue
		}
		l.Close()
	}
}

func TestBootErrorFindsOnlyANewDataDirFailure(t *testing.T) {
	dir := t.TempDir()
	r := &replica{logPth: filepath.Join(dir, "node2.log"), dataDir: filepath.Join(dir, "data2")}
	old := "2026/01/02 15:04:05 boot from " + r.dataDir + ": sm: replay stopped at 3 of 9 entries\n"
	if err := os.WriteFile(r.logPth, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	from := fileSize(r.logPth)
	if got := bootError(r, from); got != "" {
		t.Errorf("an earlier start's failure was reported: %q", got)
	}
	f, err := os.OpenFile(r.logPth, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("2026/01/02 15:04:06 booted from " + r.dataDir + ": snapshot (4, 2), replayed 1 entries\n")
	f.WriteString("panic: runtime error: invalid memory address or nil pointer dereference\n")
	f.Close()
	if got := bootError(r, from); got != "" {
		t.Errorf("a start-up panic after a good boot was reported as a data-directory failure: %q", got)
	}
	bad := "2026/01/02 15:04:07 boot from " + r.dataDir + ": sm: retained entries have a gap at index 272 (replay position 236)"
	f, _ = os.OpenFile(r.logPth, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString(bad + "\n")
	f.Close()
	if got := bootError(r, from); got != bad {
		t.Errorf("bootError = %q, want %q", got, bad)
	}
}
