package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 0.99, 990, false}, // only nine beyond
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{11, 0.50, 6, false},
		{1, 0.50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailFallsBackToSupportedRank(t *testing.T) {
	v, note := tail(seq(1000), 0.99)
	if v != 990 || note != "" {
		t.Errorf("tail(1..1000, 0.99) = %g %q; want 990 and no note", v, note)
	}
	// 500 samples cannot support p99: the highest rank with ten samples
	// above it is 490.
	v, note = tail(seq(500), 0.99)
	if v != 490 || !strings.Contains(note, "unsupported") {
		t.Errorf("tail(1..500, 0.99) = %g %q; want 490 and a note", v, note)
	}
	if _, note = tail(nil, 0.5); note == "" {
		t.Error("tail of no samples gave no note")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, %t; want %v", tc.xs, got, ok, tc.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
