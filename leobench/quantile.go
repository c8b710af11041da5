package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a latency (or any other) distribution summarised exactly
// from its recorded samples — never from histogram bucket edges.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Tail  string  `json:"tail"`       // highest percentile with >= 10 samples beyond it
	TailV float64 `json:"tail_value"` // its value
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample x such that at least ceil(q*n) samples are <= x.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rank(n, q) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// beyond counts the samples strictly ranked above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// rank is ceil(q*n), immune to the float error in products such as
// 0.999*10000.
func rank(n int, q float64) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// summarize sorts a copy of samples and summarises it. The tail is the
// highest percentile on tailLadder with at least ten samples beyond
// it; with fewer than eleven samples there is none and Tail is "max".
func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99), Tail: "max"}
	if len(s) > 0 {
		d.TailV = s[len(s)-1]
	}
	for _, p := range tailLadder {
		if beyond(len(s), p/100) >= 10 {
			d.Tail = "p" + trimFloat(p)
			d.TailV = quantile(s, p/100)
			break
		}
	}
	return d
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// median is the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowSamples is the fewest samples a window may hold: a window's
// p99 then has at least ten samples beyond it.
const windowSamples = 1000

// window is one window of samples: its exact summary and the
// timestamps of its first and last sample.
type window struct {
	dist
	from, to float64
}

// windows splits samples, in the order of their timestamps at, into as
// many consecutive windows of at least windowSamples as there are, and
// summarises each window exactly.
func windows(lat, at []float64) []window {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	n := max(1, len(lat)/windowSamples)
	out := make([]window, n)
	for w := range out {
		lo, hi := w*len(idx)/n, (w+1)*len(idx)/n
		xs := make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			xs = append(xs, lat[i])
		}
		out[w] = window{dist: summarize(xs)}
		if hi > lo {
			out[w].from, out[w].to = at[idx[lo]], at[idx[hi-1]]
		}
	}
	return out
}
