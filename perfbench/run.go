package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// setupRuns is how many times an untraced run boots the network; setup_s
// is their median. The last deployment serves the run.
const setupRuns = 3

// timing is how long a run warms up and how long it measures. The
// untimed warm-up lets the directory cache, the Go heap and the TCP
// connections reach their steady state.
type timing struct{ warmup, measure time.Duration }

// result is what one run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is everything a run prints besides its metrics: the sample
// sizes behind them and notes on any metric not measured as named.
type detail map[string]any

func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		out[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// latencies splits ops by kind into sorted millisecond samples.
func latencies(recs []opRecord) (search, publish []float64) {
	for _, r := range recs {
		if r.failed() {
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		if r.op.publish {
			publish = append(publish, ms)
		} else {
			search = append(search, ms)
		}
	}
	return sortedCopy(search), sortedCopy(publish)
}

// wireKB is the mean payload traffic of the ops of one kind.
func wireKB(recs []opRecord, publish bool) float64 {
	var sum float64
	n := 0
	for _, r := range recs {
		if r.op.publish == publish && !r.failed() {
			sum += float64(r.bytes)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1024
}

func count(recs []opRecord, publish bool) int {
	n := 0
	for _, r := range recs {
		if r.op.publish == publish && !r.failed() {
			n++
		}
	}
	return n
}

// measured runs the workload's timed phases with the given clients in
// cycles, each a search block followed by a republish block that takes
// publishShare of the cycle. It returns the ops and the time each kind
// of op was measured for.
//
// A republish empties the directory caches, so on a workload that has
// them every republish block but the last is followed by an untimed
// rewarm: each later search block starts from warm caches, as the first
// one does after the warm-up.
//
// Each block starts right after a forced collection, so every run meets
// the collector at the same points of its op sequence rather than
// wherever the previous block left it.
func measured(lr *loadRunner, clients int, total time.Duration, cycles int) (recs []opRecord, searchWall, publishWall time.Duration) {
	cycle := total / time.Duration(cycles)
	pubDur := time.Duration(float64(cycle) * publishShare)
	for i := 0; i < cycles; i++ {
		if i > 0 && lr.in.spec.cacheOn() {
			lr.rewarm(clients)
		}
		runtime.GC()
		searches, wall := lr.phase(lr.searchGen(), clients, cycle-pubDur)
		searchWall += wall
		runtime.GC()
		pubs, wall := lr.phase(lr.publishGen(), clients, pubDur)
		publishWall += wall
		recs = append(append(recs, searches...), pubs...)
	}
	return recs, searchWall, publishWall
}

// runEndToEnd is an untraced run: it boots the network setupRuns times,
// drives the workload with the spec's clients, checks every answer and
// reports the end-to-end metrics.
func runEndToEnd(in *inputs, src source, tm timing) (result, detail, error) {
	det := detail{}
	var setups []float64
	var d *deployment
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if d, err = boot(in, src.cols); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	notes := map[string]string{}
	// src and the earlier deployments are dead from here on: hand their
	// memory back, so the resident-set peak is the serving network's.
	if err := resetPeakRSS(); err != nil {
		notes["peak_rss_mb"] = "high-water mark not reset (" + err.Error() + "): the peak includes setup"
	}
	lr := newLoadRunner(in, d)
	lr.phase(lr.searchGen(), in.spec.Clients, tm.warmup)
	// Cycles of about cycleLen: the host's speed wanders over seconds, so
	// searches and republishes both sample the whole run rather than one
	// stretch of it each.
	cycles := max(1, int((tm.measure+cycleLen/2)/cycleLen))
	recs, searchWall, publishWall := measured(lr, in.spec.Clients, tm.measure, cycles)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	d.net.Reference = buildReference(in)
	chk, err := lr.check(recs)
	if err != nil {
		return result{}, nil, err
	}

	v := map[string]float64{}
	search, publish := latencies(recs)
	v["search_per_s"] = float64(len(search)) / searchWall.Seconds()
	v["publish_per_s"] = float64(len(publish)) / publishWall.Seconds()
	v["search_p50_ms"], _ = percentile(search, 0.50)
	v["publish_p50_ms"], _ = percentile(publish, 0.50)
	for _, t := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"search_p99_ms", search, 0.99}, {"publish_p90_ms", publish, 0.90}} {
		var note string
		v[t.name], note = tail(t.xs, t.q)
		if note != "" {
			notes[t.name] = note
		}
	}
	v["recall"] = chk.recall
	v["wire_kb_per_search"] = wireKB(recs, false)
	v["wire_kb_per_publish"] = wireKB(recs, true)
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = rss

	det["searches"] = len(search)
	det["publishes"] = len(publish)
	det["setup_runs_s"] = setups
	det["failed_frac"] = float64(chk.failed) / float64(max(len(recs), 1))
	det["wrong_answers"] = chk.mismatches
	det["pairs_replayed"] = len(chk.order)
	if len(notes) > 0 {
		det["notes"] = notes
	}
	return result{
		Correct:   chk.failed == 0,
		Attempted: len(recs),
		Failed:    chk.failed,
		Metrics:   fill(endToEnd, v),
	}, det, nil
}

// runTraced is the per-layer run. It boots once and drives one client,
// so every call the wire sees belongs to the op in flight. An untraced
// stretch of a third of the measured time first gives the baseline for
// the tracing overhead and the process-wide runtime figures; the traced
// stretch then runs the workload's phases for the rest; last, direct
// probes time single layers. The whole run takes about as long as an
// untraced one.
func runTraced(in *inputs, src source, tm timing) (result, detail, error) {
	det := detail{}
	t0 := time.Now()
	d, err := boot(in, src.cols)
	if err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	det["setup_s"] = time.Since(t0).Seconds()
	// src is dead from here on: collect the corpus before measuring.
	runtime.GC()
	lr := newLoadRunner(in, d)
	lr.phase(lr.searchGen(), 1, tm.warmup)
	total := tm.measure
	l := newLayerReport()

	// Untraced baseline.
	runtime.GC()
	rt0 := readRuntime()
	base, _ := lr.phase(lr.searchGen(), 1, total/3)
	rt1 := readRuntime()
	l.set("runtime.alloc_kb_per_op", (rt1.allocBytes-rt0.allocBytes)/1024/float64(max(len(base), 1)))
	if busy := rt1.busyCPU - rt0.busyCPU; busy > 0 {
		l.set("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/busy)
	}

	// Traced stretch, one cycle: its searches run before any republish,
	// so they need no rewarm, which the spans and counters would count.
	rec := newRecorder()
	d.wire.rec.Store(rec)
	before := d.metrics.Snapshot()
	traced, _, _ := measured(lr, 1, total-total/3, 1)
	after := d.metrics.Snapshot()
	spans := rec.take()

	all := append(append([]opRecord(nil), base...), traced...)
	d.net.Reference = buildReference(in)
	chk, err := lr.check(all)
	if err != nil {
		return result{}, nil, err
	}
	cacheOn := in.spec.cacheOn()
	searches := count(traced, false)
	transportLayer(l, spans, traced)
	minervaLayer(l, spans, traced)
	counterLayer(l, before, after, searches, cacheOn)
	epoch := lr.pubs.Load() + 1 // past every epoch the republish phase used
	if err := probeLayers(l, lr, rec, chk, cacheOn, epoch); err != nil {
		return result{}, nil, fmt.Errorf("probe: %w", err)
	}
	d.wire.rec.Store(nil)
	baseSearch, _ := latencies(base)
	tracedSearch, _ := latencies(traced)
	if b := median(baseSearch); b > 0 {
		l.set("trace.overhead_frac", median(tracedSearch)/b-1)
	}
	for _, m := range perLayer {
		if _, ok := l.values[m.name]; !ok {
			l.set(m.name, 0)
			l.note(m.name, "not measured in this run")
		}
	}

	det["traced_ops"] = len(traced)
	det["traced_searches"] = searches
	det["traced_calls"] = len(spans)
	det["baseline_ops"] = len(base)
	det["failed_frac"] = float64(chk.failed) / float64(max(len(all), 1))
	det["wrong_answers"] = chk.mismatches
	if len(l.notes) > 0 {
		det["notes"] = l.notes
	}
	return result{
		Correct:   chk.failed == 0,
		Attempted: len(all),
		Failed:    chk.failed,
		Metrics:   fill(perLayer, l.values),
	}, det, nil
}

// runtimeSample is the process-wide counters the runtime keeps.
type runtimeSample struct {
	allocBytes     float64
	gcCPU, busyCPU float64 // seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: get(0), gcCPU: get(1), busyCPU: get(2) - get(3)}
}

// resetPeakRSS returns the freed heap to the kernel and restarts the
// kernel's resident-set high-water mark (VmHWM) from the current RSS,
// so that peakRSSMB covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
