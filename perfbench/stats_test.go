package main

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeAppliesThePercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p50, tail float64
		tailQ     float64
	}{
		{n: 2000, p50: 1000, tail: 1980, tailQ: 0.99}, // p99 has 20 beyond
		{n: 1000, p50: 500, tail: 990, tailQ: 0.99},   // exactly 10 beyond
		{n: 500, p50: 250, tail: 490, tailQ: 0.98},    // p99 would leave 5
		{n: 15, p50: 8, tail: 8, tailQ: 8.0 / 15},     // never below the median
	} {
		s := summarize(seq(tc.n), 0.99)
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || math.Abs(s.TailQ-tc.tailQ) > 1e-12 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at q %v", tc.n, s, tc.p50, tc.tail, tc.tailQ)
		}
		if beyond := tc.n - int(math.Round(s.TailQ*float64(tc.n))); tc.n > 2*tailMin && beyond < tailMin {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if s := summarize(nil, 0.99); s != (summary{}) {
		t.Errorf("empty: %+v", s)
	}
}

func TestHistSummaryInterpolatesWithinBuckets(t *testing.T) {
	// 1000 samples: 500 in (0,10], 480 in (10,20], 20 in (20,50].
	bounds := []float64{10, 20, 50}
	counts := []uint64{500, 480, 20, 0}
	s := histSummary(bounds, counts, 0.99)
	if s.N != 1000 || s.P50 != 10 {
		t.Fatalf("got %+v, want n 1000, p50 10", s)
	}
	// Rank 990 is the 10th of 20 samples in (20,50]: 20 + 30·10/20.
	if s.Tail != 35 || s.TailQ != 0.99 {
		t.Errorf("tail %v at q %v, want 35 at 0.99", s.Tail, s.TailQ)
	}
	// A +Inf bucket reads as its lower bound.
	s = histSummary([]float64{10}, []uint64{0, 2000}, 0.99)
	if s.P50 != 10 || s.Tail != 10 {
		t.Errorf("+Inf bucket: %+v", s)
	}
	if s := histSummary(bounds, make([]uint64, 4), 0.99); s.N != 0 {
		t.Errorf("empty histogram: %+v", s)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio over 0 = %v", r)
	}
}

func TestSteadySummaryDropsTheSlowestSpans(t *testing.T) {
	start := time.Unix(1000, 0)
	window := 10 * time.Second
	var lat []float64
	var done []time.Time
	// Ten 1 s spans of 200 samples each: span k reads 10+k ms, except
	// span 3, a slow spell at 500 ms, and span 7, with no completion.
	for k := 0; k < 10; k++ {
		if k == 7 {
			continue
		}
		for i := 0; i < 200; i++ {
			x := float64(10 + k)
			if k == 3 {
				x = 500
			}
			lat = append(lat, x)
			done = append(done, start.Add(time.Duration(k)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	// A completion after the window joins the last span.
	lat = append(lat, 19)
	done = append(done, start.Add(window+time.Second))
	before := append([]float64(nil), lat...)

	s, p90, dropped := steadySummary(lat, done, start, window, 10, 3, 0.99)
	// Dropped: span 7 (no sample), span 3 (the spell), span 9 (slowest
	// of the rest); kept 0,1,2,4,5,6,8.
	for k, want := range []bool{false, false, false, true, false, false, false, true, false, true} {
		if dropped[k] != want {
			t.Fatalf("dropped %v", dropped)
		}
	}
	if p90[3] != 500 || !math.IsInf(p90[7], 1) || p90[9] != 19 {
		t.Errorf("span p90s %v", p90)
	}
	// 1400 kept samples: rank 700 (p50) is in span 4's, rank 1386 (p99)
	// in span 8's.
	if s.N != 7*200 || s.P50 != 14 || s.Tail != 18 {
		t.Errorf("pooled summary %+v, want n 1400, p50 14, tail 18", s)
	}
	for i := range lat {
		if lat[i] != before[i] {
			t.Fatal("steadySummary reordered its input")
		}
	}
}
