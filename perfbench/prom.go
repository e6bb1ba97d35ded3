package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	Key    string            // the line up to the value: name{labels}
	Name   string            // metric name without labels
	Labels map[string]string // parsed label pairs
	Value  float64
}

// scrape is one parsed /metrics document.
type scrape []series

// parseProm parses the Prometheus text format (version 0.0.4) as the
// replicas' /metrics endpoint writes it: comment lines, then one
// `name{k="v",...} value` line per series.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		s := series{Key: line[:i], Name: line[:i], Value: v}
		if j := strings.IndexByte(s.Key, '{'); j >= 0 {
			if !strings.HasSuffix(s.Key, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", ln, line)
			}
			s.Name = s.Key[:j]
			if s.Labels, err = parseLabels(s.Key[j+1 : len(s.Key)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %d: %w", ln, err)
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses a label body `k="v",k2="v2"` (values are
// double-quoted with backslash escapes).
func parseLabels(body string) (map[string]string, error) {
	m := map[string]string{}
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("bad label body %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		m[key] = val.String()
		body = strings.TrimPrefix(rest[i+1:], ",")
	}
	return m, nil
}

// matches reports whether s carries every k=v pair of want.
func (s series) matches(want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if s.Labels[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// sum adds every series of the named metric that carries the wanted
// label pairs (given as k, v, k, v, ...).
func (sc scrape) sum(name string, want ...string) float64 {
	var t float64
	for _, s := range sc {
		if s.Name == name && s.matches(want) {
			t += s.Value
		}
	}
	return t
}

// sumPrefix adds every series of the named metric whose label k starts
// with prefix (e.g. every EA_* wire kind).
func (sc scrape) sumPrefix(name, k, prefix string, want ...string) float64 {
	var t float64
	for _, s := range sc {
		if s.Name == name && strings.HasPrefix(s.Labels[k], prefix) && s.matches(want) {
			t += s.Value
		}
	}
	return t
}

// add returns a + b series by series (a series missing on one side
// counts as 0). Used to carry a restarted replica's counters across its
// two lives, and to pool replicas.
func add(a, b scrape) scrape {
	return combine(a, b, 1)
}

// delta returns after − before series by series: the window's increment
// for counters and cumulative histogram buckets. A series absent before
// counts from 0.
func delta(before, after scrape) scrape {
	return combine(after, before, -1)
}

func combine(a, b scrape, sign float64) scrape {
	idx := make(map[string]int, len(a))
	out := make(scrape, 0, len(a)+len(b))
	for _, s := range a {
		idx[s.Key] = len(out)
		out = append(out, s)
	}
	for _, s := range b {
		if i, ok := idx[s.Key]; ok {
			out[i].Value += sign * s.Value
			continue
		}
		s.Value *= sign
		idx[s.Key] = len(out)
		out = append(out, s)
	}
	return out
}

// histogram collects the named histogram's buckets over every matching
// series (summing replicas) and returns ascending finite bounds with
// per-bucket counts (the last count is the +Inf bucket), ready for
// histSummary.
func (sc scrape) histogram(name string, want ...string) ([]float64, []uint64) {
	cum := map[float64]float64{}
	for _, s := range sc {
		if s.Name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.Value
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	var bounds []float64
	counts := make([]uint64, 0, len(les)+1)
	prev := 0.0
	for _, le := range les {
		c := cum[le] - prev
		prev = cum[le]
		if math.IsInf(le, 1) {
			counts = append(counts, uint64(max(c, 0)))
			return bounds, counts
		}
		bounds = append(bounds, le)
		counts = append(counts, uint64(max(c, 0)))
	}
	return bounds, append(counts, 0)
}
