package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a size a unit test can boot in a moment,
// keeping its peers, transport, cache setting and op mix.
func tiny(s spec) spec {
	s.Docs = 1500
	s.Pool = 20
	return s
}

func TestEachWorkloadBootsAndAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	tm := timing{warmup: 50 * time.Millisecond, measure: 500 * time.Millisecond}
	for _, s := range workloads {
		t.Run(s.Name, func(t *testing.T) {
			in, src, err := makeInputs(tiny(s), 7)
			if err != nil {
				t.Fatal(err)
			}
			res, det, err := runEndToEnd(in, src, tm)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("end-to-end: correct=%t attempted=%d failed=%d detail=%v", res.Correct, res.Attempted, res.Failed, det)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %t), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			res, det, err = runTraced(in, src, tm)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%t failed=%d detail=%v", res.Correct, res.Failed, det)
			}
			for _, m := range perLayer {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("per-layer %s = %+v (present %t)", m.name, v, ok)
				}
			}
			for _, name := range []string{"transport.peer_query.calls_per_op", "transport.dir_post.calls_per_op", "ir.localq_us", "minerva.search_self_us", "directory.publish_ms"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %g, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

func TestRewarmRefillsCachesAfterRepublish(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a workload")
	}
	in, src, err := makeInputs(tiny(workloads[0]), 5) // search-warm: caches on
	if err != nil {
		t.Fatal(err)
	}
	d, err := boot(in, src.cols)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	lr := newLoadRunner(in, d)
	lr.rewarm(2)
	lr.phase(lr.publishGen(), 2, 200*time.Millisecond)
	lr.rewarm(2)
	before := d.metrics.Snapshot()
	recs, _ := lr.phase(lr.searchGen(), 2, 300*time.Millisecond)
	after := d.metrics.Snapshot()
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	if count(recs, false) == 0 || delta("directory.cache_hits") == 0 || delta("directory.cache_misses") != 0 {
		t.Errorf("searches %d after a rewarm: cache hits %d, misses %d; want hits and no misses",
			count(recs, false), delta("directory.cache_hits"), delta("directory.cache_misses"))
	}
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	s := tiny(workloads[1]) // search-cold-tcp: initiators are a subset of the peers
	a, _, err := makeInputs(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := makeInputs(s, 3)
	c, _, _ := makeInputs(s, 4)
	same, differ := true, false
	for i := int64(0); i < 200; i++ {
		oa, ob, oc := a.searchAt(i), b.searchAt(i), c.searchAt(i)
		same = same && oa == ob
		differ = differ || oa != oc
		if oa.publish || oa.peer != a.initiators[i%int64(len(a.initiators))] {
			t.Fatalf("search %d: %+v is not the next initiator's search", i, oa)
		}
		if p := a.publishAt(i); !p.publish || p.epoch != i+1 || p.peer != int(i%int64(a.peers)) {
			t.Fatalf("publish %d: %+v, want the next peer at epoch %d", i, p, i+1)
		}
	}
	if !same || !differ {
		t.Errorf("same seed same ops: %t; other seed other ops: %t", same, differ)
	}
	if !reflect.DeepEqual(a.pool, b.pool) {
		t.Error("same seed gave different query pools")
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].Name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q %q", i, w.Name, w.Why)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxOther float64
	for i, m := range def.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end %d: %+v, want %+v with a bound in (0, 0.25]", i, m, want)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %g is not the largest (another is %g)", setupBound, maxOther)
	}
	for i, m := range def.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, want)
		}
	}
}
