// Command perfbench is the repository's benchmark. It boots a MINERVA
// network in-process from a seed, drives one workload with a closed loop
// of clients, checks every answer against a sequential uncached replay,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics
// of a traced run (-trace 1).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload search-warm --seed 1 --seconds 20 --trace 0
//
// Standard output carries two JSON lines: the environment header with
// the run's sample sizes and notes, then the result, whose keys are
// correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh compare old.jsonl [new.jsonl]
//
// summarizes saved outputs per workload and metric (median and
// quartiles), and flags any spread or change beyond BENCHMARK.json's
// bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int) error {
	s, err := findWorkload(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	env := environment(s, seed, seconds, trace)
	in, src, err := makeInputs(s, seed)
	if err != nil {
		return err
	}
	tm := timing{warmup: 2 * time.Second, measure: time.Duration(seconds) * time.Second}
	var res result
	var det detail
	if trace == 1 {
		res, det, err = runTraced(in, src, tm)
	} else {
		res, det, err = runEndToEnd(in, src, tm)
	}
	if err != nil {
		return err
	}
	printSummary(s.Name, res)
	header, err := json.Marshal(struct {
		Env    envHeader `json:"env"`
		Detail detail    `json:"detail"`
	}{env, det})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(header))
	fmt.Println(string(line))
	return nil
}

// printSummary writes the metrics as a table on standard error.
func printSummary(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%t attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-44s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
