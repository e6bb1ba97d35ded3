package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building profiles in tests.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, p []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// synthProfile builds a gzip-compressed profile.proto. funcs[i] gets
// function id i+1 and location id i+1 (one line each, except location
// 100, which inlines function 2 into function 1); each sample is a
// count and a stack of location ids, leaf first.
func synthProfile(funcs []string, samples []struct {
	count int64
	locs  []uint64
}) []byte {
	strs := append([]string{""}, funcs...)
	var msg pb
	for _, s := range samples {
		msg = msg.bytes(2, pb(nil).packed(1, s.locs...).packed(2, uint64(s.count), uint64(s.count)*10_000_000))
	}
	for i := range funcs {
		id := uint64(i + 1)
		msg = msg.bytes(4, pb(nil).varint(1, id).bytes(4, pb(nil).varint(1, id).varint(2, 7)))
	}
	// Location 100: function 2 inlined into function 1; the leaf line
	// comes first.
	msg = msg.bytes(4, pb(nil).varint(1, 100).
		bytes(4, pb(nil).varint(1, 2)).
		bytes(4, pb(nil).varint(1, 1)))
	for i := range funcs {
		msg = msg.bytes(5, pb(nil).varint(1, uint64(i+1)).varint(2, uint64(i+1)))
	}
	for _, s := range strs {
		msg = msg.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(msg)
	zw.Close()
	return buf.Bytes()
}

func TestPprofPackageAggregation(t *testing.T) {
	funcs := []string{
		"main.main",                           // 1
		"repro/internal/rb.(*Relay).flush",    // 2
		"runtime.scanobject",                  // 3
		"runtime.gcBgMarkWorker",              // 4
		"runtime.mallocgc",                    // 5
		"repro/internal/log.(*Engine).Submit", // 6
		"internal/runtime/syscall.Syscall6",   // 7
		"net/http.(*conn).serve",              // 8
		"repro/internal/sm/testdata.helper",   // 9
	}
	type s = struct {
		count int64
		locs  []uint64
	}
	gz := synthProfile(funcs, []s{
		{3, []uint64{2, 1}},    // rb leaf
		{2, []uint64{3, 4}},    // GC worker
		{1, []uint64{5, 6, 1}}, // allocation outside GC: runtime, not runtime_gc
		{4, []uint64{7, 1}},    // syscall
		{1, []uint64{8}},       // net/http
		{2, []uint64{100}},     // inlined: leaf is rb
		{1, []uint64{9}},       // nested repo package: sm
		{1, []uint64{6}},       // log
	})
	p, err := parsePprof(gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 8 {
		t.Fatalf("%d samples, want 8", len(p.Samples))
	}
	if st := p.Samples[5].Stack; len(st) != 2 || st[0] != funcs[1] || st[1] != funcs[0] {
		t.Errorf("inlined location expanded to %v", st)
	}
	got := cpuShares([]*profile{p})
	const total = 15
	want := map[string]float64{
		"cpu.rb_frac":         5.0 / total,
		"cpu.runtime_gc_frac": 2.0 / total,
		"cpu.syscall_frac":    4.0 / total,
		"cpu.net_http_frac":   1.0 / total,
		"cpu.sm_frac":         1.0 / total,
		"cpu.log_frac":        1.0 / total,
	}
	if len(got) != len(cpuGroups) {
		t.Errorf("%d shares, want one per group (%d)", len(got), len(cpuGroups))
	}
	for k, v := range got {
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
}

func TestParsePprofReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	p, err := parsePprof(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range p.Samples {
		n += s.Count
		if len(s.Stack) == 0 {
			t.Fatalf("sample without a stack")
		}
	}
	if n == 0 {
		t.Errorf("no samples in a %v-busy profile (x=%v)", 300*time.Millisecond, x)
	}
}

func TestParsePprofRejectsGarbage(t *testing.T) {
	if _, err := parsePprof([]byte("not gzip")); err == nil {
		t.Error("non-gzip input parsed")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0xff}) // field 2, length 255 past the end
	zw.Close()
	if _, err := parsePprof(buf.Bytes()); err == nil {
		t.Error("truncated message parsed")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/rb.(*Relay).flush":  "repro/internal/rb",
		"net/http.(*conn).serve":            "net/http",
		"runtime.mallocgc":                  "runtime",
		"main.main.func1":                   "main",
		"internal/runtime/syscall.Syscall6": "internal/runtime/syscall",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
