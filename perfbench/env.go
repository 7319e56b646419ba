package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envHeader records where a result was measured, so results from
// different commits and machines can be told apart.
type envHeader struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Workload   spec   `json:"workload"`
}

func environment(s spec, seed int64, seconds, trace int) envHeader {
	return envHeader{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Workload:   s,
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
