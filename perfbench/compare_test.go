package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runLines renders saved output of runs of one workload, one value of
// metric per run.
func runLines(workload, metric string, values ...float64) string {
	var b bytes.Buffer
	for _, v := range values {
		fmt.Fprintf(&b, `{"env":{"trace":0,"workload":{"name":%q}},"detail":{}}`+"\n", workload)
		fmt.Fprintf(&b, `{"correct":true,"attempted":1,"failed":0,"metrics":{%q:{"value":%g,"unit":"1/s"}}}`+"\n", metric, v)
	}
	return b.String()
}

func TestCompareFlagsSpreadAndWorsening(t *testing.T) {
	var def benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"search_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), &def); err != nil {
		t.Fatal(err)
	}
	steady, err := readRuns(strings.NewReader(runLines("w", "search_per_s", 100, 101, 99, 100, 102)))
	if err != nil {
		t.Fatal(err)
	}
	if got := steady["w trace=0"]["search_per_s"]; len(got) != 5 {
		t.Fatalf("read %v", got)
	}
	slower, _ := readRuns(strings.NewReader(runLines("w", "search_per_s", 80, 81, 79, 80, 82)))
	noisy, _ := readRuns(strings.NewReader(runLines("w", "search_per_s", 60, 140, 100, 70, 130)))

	var out bytes.Buffer
	if !report(&out, def, []runSet{steady}) {
		t.Errorf("steady runs flagged:\n%s", out.String())
	}
	out.Reset()
	if report(&out, def, []runSet{noisy}) || !strings.Contains(out.String(), "SPREAD>bound") {
		t.Errorf("noisy runs not flagged:\n%s", out.String())
	}
	out.Reset()
	if report(&out, def, []runSet{steady, slower}) || !strings.Contains(out.String(), "DIFF>bound") {
		t.Errorf("a 20%% drop in a higher-is-better metric was not flagged:\n%s", out.String())
	}
	out.Reset()
	if report(&out, def, []runSet{slower, steady}) || !strings.Contains(out.String(), "DIFF>bound") {
		t.Errorf("a 25%% gain between two sets was not flagged:\n%s", out.String())
	}
	near, _ := readRuns(strings.NewReader(runLines("w", "search_per_s", 104, 105, 103, 104, 106)))
	out.Reset()
	if !report(&out, def, []runSet{steady, near}) {
		t.Errorf("sets 4%% apart were flagged:\n%s", out.String())
	}

	// setup_s is held to its bound like every other metric.
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), &def); err != nil {
		t.Fatal(err)
	}
	slowSetups, _ := readRuns(strings.NewReader(runLines("w", "setup_s", 2, 4, 3, 2.2, 3.8)))
	out.Reset()
	if report(&out, def, []runSet{slowSetups}) || !strings.Contains(out.String(), "SPREAD>bound") {
		t.Errorf("a setup_s spread beyond its bound was not flagged:\n%s", out.String())
	}
}
