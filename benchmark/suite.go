package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The suite is the benchmark run the way its driver runs it, for a person:
// every workload, `runs` untraced runs with seeds seed, seed+1, … and one
// traced run, interleaved round-robin so drift on the host spreads over all
// workloads. Each run is a fresh child process (the binary re-executes
// itself), so peak RSS and CPU are per run, and a panic, a hang, an OOM kill
// or an unsupported operation becomes a named failed cell while the other
// runs still happen.

type suiteConfig struct {
	dir     string
	runs    int
	seed    int64
	seconds float64
	smoke   bool
	out     string
	timeout time.Duration // per child; 0 = the run deadline plus a margin
}

// summary is one end-to-end metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Spread float64   `json:"spread"` // interquartile distance / median
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, Median: median(xs), N: len(xs), Spread: spread(xs), Values: xs}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// layerValue is one per-layer metric of a workload's traced run.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type workloadResults struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []failure             `json:"failures,omitempty"`
	EndToEnd  map[string]summary    `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer"`
}

type header struct {
	Time       string  `json:"time"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
}

// results is the schema of out/results.json, the file -compare reads.
type results struct {
	Header    header                      `json:"header"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// childRun runs one workload once in a child process and parses what it
// printed. Anything but a clean exit with a result line is returned as a
// failure naming what happened to the child.
func childRun(exe string, cfg suiteConfig, workload string, seed int64, trace bool) (*result, []failure) {
	timeout := cfg.timeout
	if timeout == 0 {
		timeout = deadline + 10*time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds), "-dir", cfg.dir}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	name := fmt.Sprintf("run/seed=%d/trace=%v", seed, trace)

	var fails []failure
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, failedMark); ok {
			cell, why, _ := strings.Cut(rest, ": ")
			fails = append(fails, failure{cell, why})
		}
	}
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || res.Metrics == nil {
		why := "no result line"
		switch {
		case ctx.Err() != nil:
			why = fmt.Sprintf("timed out after %v", timeout)
		case err != nil:
			why = err.Error() // exit status, or the signal that killed it
		}
		if tail := strings.TrimSpace(stderr.String()); tail != "" {
			if len(tail) > 400 {
				tail = "…" + tail[len(tail)-400:]
			}
			why += ": " + tail
		}
		return nil, append(fails, failure{name, why})
	}
	return &res, fails
}

func runSuite(cfg suiteConfig) (bool, error) {
	if cfg.runs < 3 {
		return false, fmt.Errorf("-runs %d: a median needs at least 3 runs", cfg.runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	scale := fullSizes.name
	if cfg.smoke {
		scale = smokeSizes.name
	}
	out := results{
		Header: header{
			Time: time.Now().UTC().Format(time.RFC3339), CPU: hostCPU(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: gitCommit(cfg.dir),
			Seed: cfg.seed, Runs: cfg.runs, Seconds: cfg.seconds, Scale: scale,
		},
		Workloads: map[string]*workloadResults{},
	}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		out.Workloads[w.name] = &workloadResults{EndToEnd: map[string]summary{}, PerLayer: map[string]layerValue{}}
		values[w.name] = map[string][]float64{}
	}
	for i := 0; i <= cfg.runs; i++ { // round i == runs is the traced one
		for _, w := range workloads {
			trace := i == cfg.runs
			seed := cfg.seed + int64(i)
			if trace {
				seed = cfg.seed
			}
			t0 := time.Now()
			res, fails := childRun(exe, cfg, w.name, seed, trace)
			fmt.Printf("%-12s seed=%-4d trace=%-5v %5.1fs  failed=%d\n", w.name, seed, trace, time.Since(t0).Seconds(), len(fails))
			wr := out.Workloads[w.name]
			wr.Failures = append(wr.Failures, fails...)
			if res == nil {
				wr.Attempted++ // the run itself is the failed cell
				continue
			}
			wr.Attempted += res.Attempted
			for name, m := range res.Metrics {
				if trace {
					wr.PerLayer[name] = layerValue{Unit: m.Unit, Value: m.Value}
				} else {
					values[w.name][name] = append(values[w.name][name], m.Value)
				}
			}
		}
	}
	ok := true
	for _, w := range workloads {
		wr := out.Workloads[w.name]
		wr.Failed = len(wr.Failures)
		ok = ok && wr.Failed == 0
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(d.Unit, values[w.name][d.Name])
		}
	}
	printSuite(&out)
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(cfg.out, append(data, '\n'), 0o644)
}

// printSuite prints every metric by name and unit: the end-to-end ones with
// median, min, max, n and spread per workload, then the per-layer table
// with one column per workload.
func printSuite(r *results) {
	h := r.Header
	fmt.Printf("\n%s, %d CPUs, GOMAXPROCS %d, %s, commit %s, seed %d, %d runs x %gs, scale %s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit, h.Seed, h.Runs, h.Seconds, h.Scale)
	for _, w := range workloads {
		wr := r.Workloads[w.name]
		fmt.Printf("\n%s: %d cells attempted, %d failed (failed_frac %.4f)\n", w.name, wr.Attempted, wr.Failed,
			float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, f := range wr.Failures {
			fmt.Printf("  FAILED %s: %s\n", f.Cell, f.Why)
		}
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Printf("  %-12s %10.4f %-3s  min %10.4f  max %10.4f  n %2d  spread %5.2f%%  bound %4.1f%%\n",
				d.Name, s.Median, s.Unit, s.Min, s.Max, s.N, 100*s.Spread, 100*d.Bound)
		}
	}
	fmt.Printf("\n%-34s %-6s", "per-layer metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, d := range perLayer {
		fmt.Printf("%-34s %-6s", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Printf(" %14.6g", r.Workloads[w.name].PerLayer[d.Name].Value)
		}
		fmt.Println()
	}
}
