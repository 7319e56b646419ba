package main

import (
	"testing"
	"time"
)

func ivs(pairs ...int) []interval {
	var out []interval
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, interval{time.Duration(pairs[i]), time.Duration(pairs[i+1])})
	}
	return out
}

func TestCoveredUnionsIntervals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		calls  []interval
		lo, hi int
		want   int
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", ivs(10, 20, 30, 45), 0, 100, 25},
		{"overlapping", ivs(10, 30, 20, 40), 0, 100, 30},
		{"nested", ivs(10, 50, 20, 30, 25, 45), 0, 100, 40},
		{"touching", ivs(10, 20, 20, 30), 0, 100, 20},
		{"unsorted", ivs(60, 70, 10, 20, 15, 25), 0, 100, 25},
		{"clipped at both ends", ivs(-10, 10, 90, 120), 0, 100, 20},
		{"outside the op", ivs(100, 110, -20, -5), 0, 100, 0},
		{"empty intervals", ivs(10, 10, 40, 30), 0, 100, 0},
		{"parallel fan-out", ivs(10, 60, 12, 80, 11, 70, 15, 40, 13, 75), 0, 100, 70},
	} {
		if got := covered(tc.calls, time.Duration(tc.lo), time.Duration(tc.hi)); got != time.Duration(tc.want) {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	// A 100-unit op whose two parallel calls overlap: self time is what
	// their union leaves, not the op minus the sum of the calls.
	if got := selfTime(0, 100, ivs(10, 60, 40, 70)); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(5, 25, nil); got != 20 {
		t.Errorf("selfTime without calls = %d, want 20", got)
	}
}

func TestMinervaLayerPerOp(t *testing.T) {
	spans := []callSpan{
		{op: 0, fam: famChord, start: 0, end: 10 * time.Microsecond},
		{op: 0, fam: famPeerQuery, start: 20 * time.Microsecond, end: 60 * time.Microsecond},
		{op: 0, fam: famPeerQuery, start: 30 * time.Microsecond, end: 80 * time.Microsecond},
		{op: 1, fam: famDirPost, start: 0, end: 5 * time.Microsecond},
		{op: probeOp, fam: famPeerQuery, start: 0, end: time.Second},
	}
	ops := []opRecord{
		{id: 0, start: 0, end: 100 * time.Microsecond},
		{id: 1, op: op{publish: true}, start: 0, end: 10 * time.Microsecond},
	}
	l := newLayerReport()
	minervaLayer(l, spans, ops)
	if got := l.values["minerva.search_self_us"]; got != 30 {
		t.Errorf("search_self_us = %g, want 30", got)
	}
	if got := l.values["minerva.fanout_us"]; got != 60 {
		t.Errorf("fanout_us = %g, want 60", got)
	}
}

func TestTransportLayerCountsPerOpKind(t *testing.T) {
	ops := []opRecord{{id: 0}, {id: 1}, {id: 2, op: op{publish: true}}}
	var spans []callSpan
	for i := 0; i < 4; i++ {
		spans = append(spans, callSpan{op: i % 2, fam: famChord, start: 0, end: time.Duration(i+1) * time.Microsecond, bytes: 100})
	}
	spans = append(spans,
		callSpan{op: 0, fam: famDirGet, end: time.Microsecond, bytes: 1000, err: true},
		callSpan{op: probeOp, fam: famDirGet, end: time.Microsecond, bytes: 5000},
		// The publish's own ring lookups stay out of the chord figures.
		callSpan{op: 2, fam: famChord, end: 50 * time.Microsecond, bytes: 7000},
		callSpan{op: 2, fam: famDirPost, end: 20 * time.Microsecond, bytes: 3000},
		callSpan{op: 2, fam: famDirPost, end: 40 * time.Microsecond, bytes: 5000},
	)
	l := newLayerReport()
	transportLayer(l, spans, ops)
	for name, want := range map[string]float64{
		"transport.chord.calls_per_op":      2,
		"transport.chord.bytes_per_call":    100,
		"transport.chord.call_us_p50":       2,
		"transport.dir_get.calls_per_op":    0.5,
		"transport.dir_get.bytes_per_call":  1000,
		"transport.dir_post.calls_per_op":   2,
		"transport.dir_post.bytes_per_call": 4000,
		"transport.peer_query.calls_per_op": 0,
		"transport.errors_per_op":           1.0 / 3,
	} {
		if got := l.values[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if l.notes["transport.chord.call_us_p99"] == "" || l.notes["transport.chord.call_us_p50"] != "" || l.notes["transport.peer_query.call_us_p50"] == "" {
		t.Errorf("missing notes for unsupported or absent figures: %v", l.notes)
	}
}
