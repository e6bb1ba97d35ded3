package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is the percentile rule's floor: a timing is reported as its
// median plus the highest percentile, up to the one asked for, that still
// has at least tailMin samples beyond it. A p99 therefore needs 1000
// samples; with fewer, the reported tail is a lower percentile and the
// human-readable report says which one.
const tailMin = 10

// summary is one timing under the percentile rule.
type summary struct {
	N     int     // sample count
	P50   float64 // median (nearest rank)
	Tail  float64 // value at TailQ
	TailQ float64 // percentile actually reported, in (0, 1]
}

// rank is the 1-based nearest rank of quantile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// tailRank applies the percentile rule: the nearest rank of `want`,
// lowered until tailMin samples lie beyond it, but never below the
// median.
func tailRank(want float64, n int) int {
	r := min(rank(want, n), n-tailMin)
	return max(r, rank(0.5, n))
}

// summarize reports the median and rule-bound tail of xs (sorted in
// place). An empty slice yields the zero summary.
func summarize(xs []float64, want float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	r := tailRank(want, n)
	return summary{N: n, P50: xs[rank(0.5, n)-1], Tail: xs[r-1], TailQ: float64(r) / float64(n)}
}

// steadySummary is summarize over the steadier part of a window. The
// samples are cut into `spans` equal spans of the window by when they
// completed (a late completion joins the last span), and the `drop`
// spans with the highest p90 (nearest rank) are left out before the rest
// are pooled. A slow spell of the host that covers at most `drop` spans
// then does not move the result, while a change that slows more than
// `drop` spans does. It also returns each span's p90 in window order
// (+Inf for a span with no sample) and which spans were dropped. The
// inputs are not modified.
func steadySummary(lat []float64, done []time.Time, start time.Time, window time.Duration, spans, drop int, want float64) (summary, []float64, []bool) {
	parts := make([][]float64, spans)
	for i, x := range lat {
		k := int(int64(spans) * int64(done[i].Sub(start)) / int64(window))
		k = min(max(k, 0), spans-1)
		parts[k] = append(parts[k], x)
	}
	p90 := make([]float64, spans)
	order := make([]int, spans)
	for k, sp := range parts {
		order[k] = k
		p90[k] = math.Inf(1) // a span with no completion was a stall
		if len(sp) > 0 {
			sort.Float64s(sp)
			p90[k] = sp[rank(0.9, len(sp))-1]
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return p90[order[a]] > p90[order[b]] })
	dropped := make([]bool, spans)
	for _, k := range order[:drop] {
		dropped[k] = true
	}
	var pooled []float64
	for k, sp := range parts {
		if !dropped[k] {
			pooled = append(pooled, sp...)
		}
	}
	return summarize(pooled, want), p90, dropped
}

// histSummary is summarize for a bucketed histogram: bounds are the
// ascending finite upper bounds, counts the per-bucket (not cumulative)
// counts with one extra trailing +Inf bucket. Values inside a bucket are
// interpolated linearly; the +Inf bucket reads as its lower bound.
func histSummary(bounds []float64, counts []uint64, want float64) summary {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return summary{}
	}
	at := func(r int) float64 {
		var cum uint64
		for i, c := range counts {
			if cum+c < uint64(r) {
				cum += c
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i >= len(bounds) {
				return lo
			}
			return lo + (bounds[i]-lo)*float64(uint64(r)-cum)/float64(c)
		}
		return bounds[len(bounds)-1]
	}
	r := tailRank(want, int(n))
	return summary{N: int(n), P50: at(rank(0.5, int(n))), Tail: at(r), TailQ: float64(r) / float64(n)}
}

// median of xs (sorted in place); the mean of the middle pair for even
// counts.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work this run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// topK returns the k largest of xs, largest first.
func topK(xs []float64, k int) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[:min(k, len(s))]
}
