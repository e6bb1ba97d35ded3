package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, fixed at 100 on Linux).
const userHZ = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (uint64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return u + s, nil
}

// parseKeyed parses "key: value" lines (/proc/<pid>/io and
// /proc/<pid>/status); the value is the first field after the colon.
func parseKeyed(b []byte) map[string]uint64 {
	m := map[string]uint64{}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			m[strings.TrimSpace(k)] = n
		}
	}
	return m
}

// procSample is one reading of a process's resource counters.
type procSample struct {
	CPUTicks   uint64 // utime+stime
	WriteBytes uint64 // /proc/<pid>/io write_bytes
	HWMKB      uint64 // /proc/<pid>/status VmHWM, in kB
}

// readProc samples /proc/<pid>.
func readProc(pid int) (procSample, error) {
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return procSample{}, err
	}
	var s procSample
	if s.CPUTicks, err = parseStatCPU(stat); err != nil {
		return procSample{}, err
	}
	if io, err := os.ReadFile(dir + "io"); err == nil {
		s.WriteBytes = parseKeyed(io)["write_bytes"]
	}
	st, err := os.ReadFile(dir + "status")
	if err != nil {
		return procSample{}, err
	}
	s.HWMKB = parseKeyed(st)["VmHWM"]
	return s, nil
}
