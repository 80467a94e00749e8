package main

import (
	"math"
	"sort"
	"time"
)

// dist is the order-statistics summary of one timing sample: the median,
// and the tail — the highest percentile that still has at least tailGap
// samples beyond it — with the percentile and sample count it came from.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

// tailGap is how many samples must lie beyond the reported tail value.
const tailGap = 10

// summarize computes a dist over durations, in milliseconds. With fewer
// than 2*tailGap+1 samples the percentile with tailGap samples beyond it
// would lie below the median, so the tail falls back to the maximum
// (TailPct 100).
func summarize(sample []time.Duration) dist {
	n := len(sample)
	if n == 0 {
		return dist{}
	}
	ms := make([]float64, n)
	for i, d := range sample {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	d := dist{N: n, P50: median(ms), Tail: ms[n-1], TailPct: 100}
	if k := n - 1 - tailGap; k >= n/2 {
		d.Tail = ms[k]
		d.TailPct = 100 * float64(k+1) / float64(n)
	}
	return d
}

// median of a sample (copied, not reordered); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of a sample; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces NaN and ±Inf with 0 so the result line stays valid
// JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
