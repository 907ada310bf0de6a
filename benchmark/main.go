// Command benchmark is the repository's one benchmark: four workloads that
// between them exercise every layer of the stack, each checked against a
// reference, with end-to-end metrics from untraced runs and per-layer
// metrics from traced ones. See README.md in this directory.
//
//	bash benchmark/run.sh --workload des_figs --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -suite -runs 10        # every workload, ten seeds
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -regen                 # rewrite expected/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// deadline is how long one run may take before it is given up as hung: the
// benchmark's driver allows 180 s.
const deadline = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: des_figs, des_paths, certify or native_apps")
		seed         = flag.Int64("seed", 1, "seed of the workload's generated inputs")
		seconds      = flag.Float64("seconds", runSeconds, "how long to measure")
		trace        = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes out/trace-<workload>.json")
		smoke        = flag.Bool("smoke", false, "run at the smoke scale the tests use")
		dir          = flag.String("dir", "", "the benchmark's directory (default: the working directory)")
		regen        = flag.Bool("regen", false, "regenerate expected/ from this commit and exit")
		suite        = flag.Bool("suite", false, "run every workload -runs times in child processes and write out/results.json")
		runs         = flag.Int("runs", 10, "with -suite: untraced runs per workload, each with its own seed (at least 3)")
		out          = flag.String("out", "", "with -suite: results file (default out/results.json)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json as the declarations in this package define it")
	)
	flag.Parse()
	if *dir == "" {
		*dir = "."
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}

	switch {
	case *printMan:
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *regen:
		if err := regenerate(filepath.Join(*dir, "expected"), *seed, smokeSizes, fullSizes); err != nil {
			fatal(err)
		}
	case *suite:
		if *out == "" {
			*out = filepath.Join(*dir, "out", "results.json")
		}
		ok, err := runSuite(suiteConfig{dir: *dir, runs: *runs, seed: *seed, seconds: *seconds, smoke: *smoke, out: *out})
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if *workloadName == "" {
			fatal("no -workload given (have des_figs, des_paths, certify, native_apps)")
		}
		// A hung cell cannot be interrupted from inside the process; the
		// run is given up instead, with a non-zero exit and no result line.
		time.AfterFunc(deadline, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", *workloadName, deadline)
			os.Exit(3)
		})
		res, err := run(runConfig{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
			dir: *dir, sz: sz, setups: 5})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %s seed=%d seconds=%g trace=%d gomaxprocs=%d %s\n", *workloadName, *seed, *seconds, *trace,
			runtime.GOMAXPROCS(0), runtime.Version())
		if err := printResult(res); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

// regenerate rewrites the references in dir at the given scales. The
// Modeled-mode references are this commit's own output (a regression gate:
// modeled results must stay byte-identical); the Real-mode ones come from
// ir.ExecSequential. Only cells whose output does not depend on the seed
// have references, so any seed regenerates the same files.
func regenerate(dir string, seed int64, scales ...sizes) error {
	for _, w := range workloads {
		for _, sz := range scales {
			cells, err := w.prepare(sz, seed)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, sz.name, err)
			}
			for _, c := range w.probes(sz) {
				if c.ref {
					cells = append(cells, c)
				}
			}
			p := runPass(cells, nil, sz, nil)
			if len(p.failed) > 0 {
				return fmt.Errorf("%s/%s: cell %s failed: %s", w.name, sz.name, p.failed[0].Cell, p.failed[0].Why)
			}
			path := referencePath(dir, w.name, sz.name)
			if err := p.got.write(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d references)\n", path, len(p.got))
		}
	}
	return nil
}
