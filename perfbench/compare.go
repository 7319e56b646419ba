package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runSet holds the metric values of saved runs, by (workload, trace)
// group and metric name.
type runSet map[string]map[string][]float64

// readRuns parses saved benchmark output: each result line is attributed
// to the environment header line before it.
func readRuns(r io.Reader) (runSet, error) {
	set := runSet{}
	group := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Env *struct {
				Trace    int `json:"trace"`
				Workload struct {
					Name string `json:"name"`
				} `json:"workload"`
			} `json:"env"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Env != nil:
			group = fmt.Sprintf("%s trace=%d", line.Env.Workload.Name, line.Env.Trace)
		case line.Metrics != nil:
			if group == "" {
				return nil, fmt.Errorf("result line without an environment header")
			}
			if set[group] == nil {
				set[group] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set[group][name] = append(set[group][name], m.Value)
			}
		}
	}
	return set, sc.Err()
}

func readRunFile(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRuns(f)
}

// summary is one metric's median and spread over a set of runs.
type summary struct {
	n             int
	q1, med, q3   float64
	spread        float64 // (q3 − q1) / median
	spreadDefined bool
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), med: median(xs)}
	if q1, _, q3, ok := quartiles(xs); ok {
		s.q1, s.q3 = q1, q3
		if s.med != 0 {
			s.spread, s.spreadDefined = (q3-q1)/math.Abs(s.med), true
		}
	}
	return s
}

// worsening is how much worse b is than a, as a share of a (negative
// when b is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] runs-a.jsonl [runs-b.jsonl]")
		return 2
	}
	raw, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", *bench, err)
		return 2
	}
	var sets []runSet
	for _, path := range fs.Args() {
		s, err := readRunFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sets = append(sets, s)
	}
	if !report(os.Stdout, def, sets) {
		return 1
	}
	return 0
}

// report prints each group's metrics and returns false when any bounded
// metric spreads beyond its bound within a set or, given two sets, when
// its median moves by more than its bound in either direction: two sets
// of the same code must agree, and a gain as large as the bound is as
// much a sign of noise as a loss.
func report(w io.Writer, def benchmarkFile, sets []runSet) bool {
	type rule struct {
		better string
		bound  float64 // 0: no bound
	}
	rules := map[string]rule{}
	for _, m := range def.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	for _, m := range def.PerLayer {
		rules[m.Name] = rule{m.Better, 0}
	}
	groups := map[string]bool{}
	for _, s := range sets {
		for g := range s {
			groups[g] = true
		}
	}
	var names []string
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	ok := true
	for _, g := range names {
		fmt.Fprintf(w, "== %s\n", g)
		fmt.Fprintf(w, "%-42s %4s %12s %12s %12s %8s", "metric", "n", "q1", "median", "q3", "spread")
		if len(sets) == 2 {
			fmt.Fprintf(w, " %4s %12s %8s %8s", "n", "median-b", "spread-b", "worse")
		}
		fmt.Fprintf(w, " %6s  flags\n", "bound")
		var metrics []string
		seen := map[string]bool{}
		for _, s := range sets {
			for m := range s[g] {
				if !seen[m] {
					seen[m] = true
					metrics = append(metrics, m)
				}
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			r := rules[m]
			a := summarize(sets[0][g][m])
			fmt.Fprintf(w, "%-42s %4d %12.4f %12.4f %12.4f %8.4f", m, a.n, a.q1, a.med, a.q3, a.spread)
			var flags []string
			checkSpread := func(s summary, label string) {
				if r.bound == 0 || s.n < 2 {
					return
				}
				if !s.spreadDefined || s.spread > r.bound {
					flags = append(flags, "SPREAD"+label+">bound")
				} else if s.spread > r.bound/3 {
					flags = append(flags, "spread"+label+">bound/3")
				}
			}
			checkSpread(a, "")
			if len(sets) == 2 {
				b := summarize(sets[1][g][m])
				worse := worsening(a.med, b.med, r.better)
				fmt.Fprintf(w, " %4d %12.4f %8.4f %8.4f", b.n, b.med, b.spread, worse)
				checkSpread(b, "-b")
				if r.bound > 0 && a.n > 0 && b.n > 0 && math.Abs(worse) > r.bound {
					flags = append(flags, "DIFF>bound")
				}
			}
			for _, f := range flags {
				if f[0] >= 'A' && f[0] <= 'Z' {
					ok = false
				}
			}
			fmt.Fprintf(w, " %6.3f  %v\n", r.bound, flags)
		}
	}
	return ok
}
