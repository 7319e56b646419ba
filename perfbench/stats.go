package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure backed by fewer than ten slower samples is one or two
// outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// and whether at least minBeyond samples lie strictly above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// tail is percentile for reporting a tail (p90, p99): when the sample
// is too small for q it falls back to the highest rank that still has
// minBeyond samples above it and says so in the returned note ("" when
// q was supported).
func tail(sorted []float64, q float64) (float64, string) {
	v, ok := percentile(sorted, q)
	if ok || len(sorted) == 0 {
		if len(sorted) == 0 {
			return 0, "no samples"
		}
		return v, ""
	}
	rank := len(sorted) - 1 - minBeyond
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], fmt.Sprintf("%d samples: p%g unsupported, reported rank %d", len(sorted), 100*q, rank+1)
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle of xs (mean of the two middles for even counts),
// matching Python's statistics.median.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, Q2 and Q3 of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// compare command reports the same spread as any script checking the
// runs with the standard library. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0, false
	}
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}
