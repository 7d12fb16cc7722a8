package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure backed by fewer samples is one outlier, not a percentile.
const minBeyond = 10

// tailPercentiles are the percentiles the benchmark reports, low to high.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest of tailPercentiles that has at
// least minBeyond of n samples beyond it, or 0 when even the median is
// unsupported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p) - 1
}

// rank is the 0-based nearest-rank index of the p-th percentile.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 > 9990) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// samples is a set of timings or sizes from one run.
type samples []float64

// percentile returns the nearest-rank p-th percentile. It fails when
// fewer than minBeyond samples lie beyond it, so a metric name like
// op_cpu_ms_p50 always means a supported percentile.
func (s samples) percentile(p float64) (float64, error) {
	if b := beyond(len(s), p); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			p, minBeyond, b, len(s))
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)], nil
}

// median of a small set, such as repeated set-up times.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac divides, returning 0 for an empty base.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
