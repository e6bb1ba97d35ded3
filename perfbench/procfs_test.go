package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (minsync (node) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 269 0 0 20 0 9 0 123 987654 2345 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+269 {
		t.Errorf("utime+stime = %d, want 1000", got)
	}
	if _, err := parseStatCPU([]byte("12 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no command field")); err == nil {
		t.Error("stat line without a command parsed")
	}
}

func TestParseKeyedIOAndStatus(t *testing.T) {
	io := "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 2\nread_bytes: 0\nwrite_bytes: 8192\ncancelled_write_bytes: 0\n"
	if got := parseKeyed([]byte(io))["write_bytes"]; got != 8192 {
		t.Errorf("write_bytes = %d", got)
	}
	status := "Name:\tminsync-node\nVmPeak:\t  812345 kB\nVmHWM:\t   17520 kB\nVmRSS:\t   16000 kB\nThreads:\t9\n"
	m := parseKeyed([]byte(status))
	if m["VmHWM"] != 17520 || m["Threads"] != 9 {
		t.Errorf("status fields %v", m)
	}
	if _, ok := m["Name"]; ok {
		t.Error("non-numeric field parsed")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if s.HWMKB == 0 {
		t.Errorf("VmHWM of a running process read 0: %+v", s)
	}
}
