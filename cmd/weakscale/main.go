// Command weakscale regenerates the paper's weak-scaling figures (6-9):
// for one application or all of them, it sweeps node counts, runs every
// system variant on the simulated machine, and prints throughput-per-node
// series (optionally as CSV).
//
// Usage:
//
//	weakscale [-app stencil|miniaero|pennant|circuit|all] [-nodes 1,2,...]
//	          [-iters N] [-j workers] [-csv] [-v] [-faults seed:rate]
//	          [-backend des|native]
//	          [-timepolicy modeled|measured] [-fit-in file] [-fit-out file]
//	          [-trace on|off] [-trace-share on|off] [-prune on|off]
//	          [-agg on|off] [-verify] [-verify-json file]
//	          [-cpuprofile file] [-memprofile file]
//
// The measurement flags (-backend, -trace, -trace-share, -prune, -agg,
// -timepolicy/-fit-in, -fit-out, -faults) parse into one bench.Config
// whose options every cell of every app's sweep runs under; EXPERIMENTS.md
// "Options" says what each changes, what must stay identical, and which
// test pins it. After each app, what the engines counted is printed to
// stderr (so CSV output stays clean) as one line of sorted name=value
// pairs named layer.metric as in BENCHMARK.json.
//
// -verify certifies, before sweeping, the loop each app replicates at
// every swept node count under both sync lowerings, as the sweep will run
// it, and exits with status 2 on any finding. -verify-json writes each
// certification's verify.Suite as one JSON document, in sweep order, to
// the named file ("-" = stdout, and the sweep's own output moves to
// stderr), and implies -verify.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/realm"
	"repro/internal/verify"
)

// certify certifies, with verify.Certify, the loop each app's sweep
// replicates at every swept node count under both sync lowerings, compiled
// and licensed as opts will run it. Findings are printed to stderr
// prefixed with their pass name. It returns one suite per (app, node
// count, lowering) in that order, and the number of findings printed.
func certify(apps []harness.App, nodes []int, opts bench.MeasureOpts, stderr io.Writer) (suites []*verify.Suite, bad int) {
	for _, app := range apps {
		for _, n := range nodes {
			prog, loop := app.BuildProgram(n)
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				prefix := fmt.Sprintf("weakscale: %s @ %d nodes (%v): ", app.Name, n, sync)
				cfg := bench.Config{MeasureOpts: opts, Nodes: n, Sync: sync}
				plan, err := cr.Compile(prog, loop, cfg.Options())
				var suite *verify.Suite
				if err == nil {
					suite, err = verify.Certify(plan, opts.Prune)
				}
				if err != nil {
					fmt.Fprintf(stderr, "%s%v\n", prefix, err)
					bad++
					continue
				}
				bad += bench.WriteFindings(stderr, prefix, suite)
				suites = append(suites, suite)
			}
		}
	}
	return suites, bad
}

// parseSweep parses -nodes, a comma-separated list of node counts (empty:
// the paper's sweep), and checks -iters (0: the app default).
func parseSweep(nodesArg string, iters int) ([]int, error) {
	if iters < 0 {
		return nil, fmt.Errorf("bad -iters %d (want 0 for the app default, or a positive count)", iters)
	}
	if nodesArg == "" {
		return harness.DefaultNodes, nil
	}
	var nodes []int
	for _, part := range strings.Split(nodesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// csvQuote renders an error message as a CSV field.
func csvQuote(s string) string {
	if s == "" {
		return ""
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func main() { os.Exit(run(bench.NewFlags("weakscale", os.Stderr), os.Args[1:], os.Stdout)) }

// run is weakscale over the flag set f, writing to stdout and f.Stderr; it
// returns the exit status. The profiles are written on every return,
// errors included.
func run(f *bench.Flags, args []string, stdout io.Writer) int {
	appName := f.String("app", "all", "application to run (stencil, miniaero, pennant, circuit, all)")
	nodesFlag := f.String("nodes", "", "comma-separated node counts (default: the paper's 1..1024 sweep)")
	iters := f.Int("iters", 0, "iterations per measurement (0 = app default)")
	workers := f.Int("j", runtime.GOMAXPROCS(0), "measurement cells to run in parallel (output is identical at any width; -backend native always runs one at a time)")
	csv := f.Bool("csv", false, "emit CSV instead of a table")
	verbose := f.Bool("v", false, "print per-measurement progress")
	fitOut := f.Measure()
	doVerify := f.Bool("verify", false, "run the schedule certifier over every compiled schedule before sweeping (exit 2 on findings)")
	verifyJSON := f.String("verify-json", "", "write the certification suites as JSON to this file (\"-\" = stdout); implies -verify")
	cpuprofile := f.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := f.String("memprofile", "", "write a heap profile to this file on exit")
	if err := f.Parse(args); err != nil {
		return f.Fail(err)
	}
	stderr := f.Stderr
	// With the suites going to stdout, the sweep's output moves to stderr so
	// stdout stays machine-parseable (weakscale ... -verify-json - | jq).
	out := stdout
	if *verifyJSON == "-" {
		out = stderr
	}

	if *cpuprofile != "" {
		file, err := os.Create(*cpuprofile)
		if err != nil {
			return f.Fail(err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return f.Fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := file.Close(); err != nil {
				f.Fail(err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			file, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(file)
				if cerr := file.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				f.Fail(err)
			}
		}()
	}

	nodes, err := parseSweep(*nodesFlag, *iters)
	if err == nil {
		err = f.Check()
	}
	if err != nil {
		return f.Fail(err)
	}
	apps := harness.Apps()
	if *appName != "all" {
		app, err := harness.AppByName(*appName)
		if err != nil {
			return f.Fail(err)
		}
		apps = []harness.App{app}
	}

	var progress func(string)
	if *verbose {
		progress = func(line string) { fmt.Fprintln(stderr, line) }
	}

	if *doVerify || *verifyJSON != "" {
		suites, bad := certify(apps, nodes, f.Config.MeasureOpts, stderr)
		if err := bench.WriteSuites(*verifyJSON, stdout, suites...); err != nil {
			return f.Fail(err)
		}
		if bad > 0 {
			fmt.Fprintf(stderr, "weakscale: static certification failed (%d findings); not sweeping\n", bad)
			return 2
		}
		fmt.Fprintln(stderr, "weakscale: static certification passed for every app, node count, and sync lowering")
	}

	for _, app := range apps {
		if *iters > 0 {
			app.Iters = *iters
		}
		app.Opts = f.Config.MeasureOpts
		app.Opts.Counters = &bench.Counters{}
		series, err := harness.RunFigureParallel(app, nodes, *workers, progress)
		if err != nil {
			return f.Fail(err)
		}
		counters := app.Opts.Counters.Snapshot()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		line := fmt.Sprintf("weakscale: %s counters:", app.Name)
		for _, name := range names {
			line += fmt.Sprintf(" %s=%d", name, counters[name])
		}
		fmt.Fprintln(stderr, line)
		if *csv {
			// wall_s (host wall-clock, never identical between runs) is the
			// last column so schedule-equivalence diffs can strip it.
			fmt.Fprintf(out, "app,system,nodes,per_iter_s,throughput_per_node_%s,error,wall_s\n", strings.ReplaceAll(app.Unit, " ", "_"))
			for _, s := range series {
				for _, p := range s.Points {
					fmt.Fprintf(out, "%s,%s,%d,%g,%g,%s,%g\n", app.Name, s.System, p.Nodes, p.PerIter.Seconds(), p.Throughput, csvQuote(p.Err), p.Wall.Seconds())
				}
			}
		} else {
			fmt.Fprint(out, harness.FormatFigure(app, series))
			fmt.Fprintln(out)
		}
	}

	if fit, ok := f.Config.Fit.(*realm.MeasuredTime); ok {
		launches, copies := fit.Samples()
		buf, err := fit.ExportJSON()
		if err == nil {
			err = os.WriteFile(*fitOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			return f.Fail(err)
		}
		fmt.Fprintf(stderr, "weakscale: wrote fitted time policy (%d launch / %d copy samples) to %s\n",
			launches, copies, *fitOut)
	}
	return 0
}
