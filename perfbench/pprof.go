package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuGroups are the package groups the CPU attribution reports, as
// cpu.<group>_frac: the repository's own packages, then the runtime's
// garbage collector, system calls and the standard HTTP stack.
var cpuGroups = []string{
	"httpapi", "txpool", "log", "rb", "ea", "ac", "cb", "core", "combin", "proto",
	"sm", "kv", "store", "wire", "netx", "rt", "xtrace", "obs", "sim", "network",
	"harness", "runtime_gc", "syscall", "net_http",
}

// profile is the part of a pprof CPU profile the attribution needs: for
// every sample, its count and the function names of its stack, leaf
// first (inlined frames expanded).
type profile struct {
	Samples []profSample
}

type profSample struct {
	Count int64
	Stack []string
}

// parsePprof decodes a gzip-compressed profile.proto, the format of
// /debug/pprof/profile and runtime/pprof. Only the fields the
// attribution reads are decoded.
func parsePprof(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{Count: s.values[0]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.Stack = append(ps.Stack, name(f))
			}
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire 0) or payload (wire 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field, packed (wire 2) or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, u), b[n:]
	}
	return dst
}

// funcPackage returns the import path of a function symbol such as
// "repro/internal/rb.(*Relay).flush" or "net/http.(*conn).serve".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcFrame reports whether a frame belongs to the garbage collector's
// own work (mark workers, assists, sweeping, scavenging).
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuGroup classifies one sample by its leaf frame (flat attribution):
// a repository package by its name under repro/internal, runtime leaves
// under a collector frame as runtime_gc, system-call leaves as syscall,
// net/http leaves as net_http; "" for everything else.
func cpuGroup(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	pkg := funcPackage(stack[0])
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix":
		return "syscall"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, f := range stack {
			if gcFrame(f) {
				return "runtime_gc"
			}
		}
	}
	return ""
}

// cpuShares returns, for every group in cpuGroups, its share of all
// samples across the profiles, keyed cpu.<group>_frac.
func cpuShares(profiles []*profile) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, p := range profiles {
		for _, s := range p.Samples {
			total += s.Count
			if g := cpuGroup(s.Stack); g != "" {
				by[g] += s.Count
			}
		}
	}
	out := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		out["cpu."+g+"_frac"] = ratio(float64(by[g]), float64(total))
	}
	return out
}
