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
// The measurement flags (-faults, -backend, -timepolicy/-fit-in, -fit-out,
// -trace, -trace-share, -prune, -agg) parse into one bench.MeasureOpts that
// every cell of every app's sweep runs under. After each app, what the
// engines counted under those options is printed to stderr (so CSV output
// stays clean) as one line of sorted name=value pairs,
//
//	weakscale: stencil counters: rt.capture_iters=8 ... spmd.captures=4 ...
//
// named layer.metric as in BENCHMARK.json: rt.* and spmd.* are the two
// runtimes' trace counters, native.* the native scheduler's, verify.* the
// -prune and -agg certification passes', realm.* the message counts of -agg
// runs.
//
// -backend selects the realm backend. The default, des, measures on the
// deterministic discrete-event simulator and reports virtual time. native
// runs the Regent systems' real kernels on real goroutines over shared
// memory and reports wall-clock time; the MPI baselines are DES cost
// models and are dropped from native sweeps. Native sweeps want small
// node counts (each simulated node is a set of goroutines competing for
// the host's cores) and measure one cell at a time whatever -j says, so no
// cell's wall clock, and no duration -fit-out fits, includes another's.
//
// -timepolicy selects the DES's time-charging policy: modeled (default)
// charges the Cray-XC-style cost model; measured charges a policy fitted
// from real native runs, imported with -fit-in (a JSON file written by
// -fit-out). -fit-out, valid with -backend native, records the wall-clock
// duration of every executed kernel and copy during the sweep and writes
// the fitted coefficients to the named file — the calibration loop is:
//
//	weakscale -backend native -nodes 2,4 -fit-out fit.json
//	weakscale -timepolicy measured -fit-in fit.json
//
// -verify runs the schedule certifier (verify.Certify) before sweeping,
// over the loop each app replicates at every swept node count under both
// sync lowerings, compiled and licensed as the sweep will run it: under
// -agg on the aggregation pass, under -prune on the pruning pass, then the
// race, liveness (deadlock-freedom) and specialization-table passes on the
// resulting schedule. The sweep aborts with exit status 2 on any finding.
// -verify-json additionally writes each certification's verify.Suite as
// one JSON document, in sweep order, to the named file ("-" = stdout, and
// the sweep's own output moves to stderr), and implies -verify.
//
// -prune=on attaches the certified redundant-sync pruning pass to every
// Regent-CR cell: sync edges proven transitively redundant (and dead
// initialization populations) are skipped by the executor. Default off.
// Throughput series and stores are identical either way on the DES; the
// verify.pruned_* and verify.sync_edges_* counters say what was removed.
//
// -agg=on runs every Regent-CR cell with coalesced exchange plans: each
// exchange phase's copy pairs are merged into one message per (producing
// shard, destination shard) aggregation group, licensed per cell by the
// verify.CheckAgg certification pass — the coalescing analogue of the
// prune license. Default off. Throughput series, stores, and bytes sent
// are identical either way on the DES; only message counts drop
// (verify.agg_* is the static shape, realm.agg_saved_messages what the run
// saved). With -prune=on as well, the prune is planned for, and certified
// on, the aggregated schedule.
//
// -trace=off disables runtime trace capture/replay (the PR 3 ablation).
// The printed series are identical either way — tracing only changes host
// wall-clock — so the flag exists to demonstrate exactly that; the replay
// counters (rt.replayed_launches, spmd.replayed_iters) read 0.
//
// -trace-share=off keeps tracing but disables cross-shard sharing: no
// shared capture is recorded (and none is shipped on failover), so every
// SPMD shard plan counts as a per-shard capture. Resolution is the same
// code either way; only the capture counters and failover shipping differ.
//
// -faults injects deterministic node crashes into every measurement cell:
// seed is the base fault seed (each cell derives its own), rate is the
// expected crashes per second (of virtual time on des; of modeled
// execution on native, where each launch rolls per quantum of its modeled
// duration). Regent-CR cells recover via checkpoint/restart on both
// backends; systems without recovery (the MPI baselines, the implicit
// runtime) record an error for cells where a crash lands, and the sweep
// continues.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
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

// verifyApp certifies, with verify.Certify, the loop the sweep replicates
// at every swept node count under both sync lowerings, compiled and
// licensed as opts will run it. Findings are printed to stderr prefixed
// with their pass name. It returns one suite per (node count, lowering) in
// that order, and the number of findings printed.
func verifyApp(app harness.App, nodes []int, opts bench.MeasureOpts) ([]*verify.Suite, int) {
	var suites []*verify.Suite
	bad := 0
	for _, n := range nodes {
		prog, loop := app.BuildProgram(n)
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			fail := func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "weakscale: %s @ %d nodes (%v): ", app.Name, n, sync)
				fmt.Fprintf(os.Stderr, format+"\n", args...)
				bad++
			}
			plan, err := cr.Compile(prog, loop, cr.Options{NumShards: n, Sync: sync, Agg: opts.Agg})
			var suite *verify.Suite
			if err == nil {
				suite, err = verify.Certify(plan, opts.Prune)
			}
			if err != nil {
				fail("%v", err)
				continue
			}
			for _, r := range suite.Reports {
				for _, f := range r.Findings {
					fail("FAIL [%s] %s", r.Pass, f)
				}
			}
			suites = append(suites, suite)
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

// onOff parses the shared on|off flag vocabulary (-trace, -trace-share,
// -prune, -agg), exiting with a usage error on anything else.
func onOff(name, val string) bool {
	switch val {
	case "on":
		return true
	case "off":
		return false
	}
	fmt.Fprintf(os.Stderr, "weakscale: bad -%s %q (want on or off)\n", name, val)
	os.Exit(1)
	panic("unreachable")
}

// parseFaults parses the -faults argument, "seed:rate".
func parseFaults(arg string) (*realm.FaultPlan, error) {
	seedStr, rateStr, ok := strings.Cut(arg, ":")
	if !ok {
		return nil, fmt.Errorf("bad -faults %q (want seed:rate, e.g. 42:0.5)", arg)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 0, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -faults seed %q: %v", seedStr, err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
	if err != nil || !(rate >= 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("bad -faults rate %q (want finite crashes per simulated second >= 0)", rateStr)
	}
	return &realm.FaultPlan{Seed: seed, CrashRate: rate}, nil
}

// csvQuote renders an error message as a CSV field.
func csvQuote(s string) string {
	if s == "" {
		return ""
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func main() {
	appName := flag.String("app", "all", "application to run (stencil, miniaero, pennant, circuit, all)")
	nodesFlag := flag.String("nodes", "", "comma-separated node counts (default: the paper's 1..1024 sweep)")
	iters := flag.Int("iters", 0, "iterations per measurement (0 = app default)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "measurement cells to run in parallel (output is identical at any width; -backend native always runs one at a time)")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	verbose := flag.Bool("v", false, "print per-measurement progress")
	faults := flag.String("faults", "", "inject faults: seed:rate (crash rate in crashes per simulated second)")
	backend := flag.String("backend", bench.BackendDES, "realm backend: des (deterministic simulator, virtual time) or native (real goroutines, wall-clock)")
	timepolicy := flag.String("timepolicy", "modeled", "DES time-charging policy: modeled (Cray-XC cost model) or measured (fitted, needs -fit-in)")
	fitIn := flag.String("fit-in", "", "JSON file of fitted time coefficients to import (with -timepolicy measured)")
	fitOut := flag.String("fit-out", "", "fit a time policy from this native sweep and write its coefficients to this JSON file")
	trace := flag.String("trace", "on", "runtime trace capture/replay: on or off (ablation; results are identical)")
	traceShare := flag.String("trace-share", "on", "cross-shard trace sharing: on or off (ablation; results are identical)")
	prune := flag.String("prune", "off", "certified redundant-sync pruning: off (default) or on (ablation; results are identical, sync edges and messages drop)")
	agg := flag.String("agg", "off", "coalesced exchange plans: off (default) or on (ablation; results are identical, one message per destination shard per exchange phase)")
	doVerify := flag.Bool("verify", false, "run the schedule certifier over every compiled schedule before sweeping (exit 2 on findings)")
	verifyJSON := flag.String("verify-json", "", "write the certification suites as JSON to this file (\"-\" = stdout); implies -verify")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// With the suites going to stdout, the sweep's output moves to stderr so
	// stdout stays machine-parseable (weakscale ... -verify-json - | jq).
	jsonOut := os.Stdout
	if *verifyJSON == "-" {
		os.Stdout = os.Stderr
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "weakscale:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "weakscale:", err)
			}
		}()
	}

	nodes, err := parseSweep(*nodesFlag, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weakscale:", err)
		os.Exit(1)
	}

	if *backend != bench.BackendDES && *backend != bench.BackendNative {
		fmt.Fprintf(os.Stderr, "weakscale: bad -backend %q (want des or native)\n", *backend)
		os.Exit(1)
	}
	// Every measurement flag lands in opts, the one value each cell runs under.
	opts := bench.MeasureOpts{
		Backend: *backend,
		NoTrace: !onOff("trace", *trace),
		NoShare: !onOff("trace-share", *traceShare),
		Prune:   onOff("prune", *prune),
		Agg:     onOff("agg", *agg),
	}

	var fit *realm.MeasuredTime
	if *fitOut != "" {
		if !opts.NativeBackend() {
			fmt.Fprintln(os.Stderr, "weakscale: -fit-out records real kernel durations; use -backend native")
			os.Exit(1)
		}
		fit = realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(1)})
		opts.Fit = fit // only when non-nil: a nil *MeasuredTime in the interface is not a nil recorder
	}
	switch *timepolicy {
	case "modeled":
		if *fitIn != "" {
			fmt.Fprintln(os.Stderr, "weakscale: -fit-in needs -timepolicy measured")
			os.Exit(1)
		}
	case "measured":
		if opts.NativeBackend() {
			fmt.Fprintln(os.Stderr, "weakscale: -timepolicy measured re-models on the DES; native time is wall-clock")
			os.Exit(1)
		}
		if *fitIn == "" {
			fmt.Fprintln(os.Stderr, "weakscale: -timepolicy measured needs -fit-in (a file written by -fit-out)")
			os.Exit(1)
		}
		data, err := os.ReadFile(*fitIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		p, err := realm.ImportMeasuredTime(data, realm.ModeledTime{Cfg: realm.DefaultConfig(1)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		opts.Policy = p
	default:
		fmt.Fprintf(os.Stderr, "weakscale: bad -timepolicy %q (want modeled or measured)\n", *timepolicy)
		os.Exit(1)
	}

	if *faults != "" {
		var err error
		if opts.Faults, err = parseFaults(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
	}

	var apps []harness.App
	if *appName == "all" {
		apps = harness.Apps()
	} else {
		app, err := harness.AppByName(*appName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		apps = []harness.App{app}
	}

	var progress func(string)
	if *verbose {
		progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	if *doVerify || *verifyJSON != "" {
		bad := 0
		var buf []byte
		for _, app := range apps {
			suites, n := verifyApp(app, nodes, opts)
			bad += n
			for _, suite := range suites {
				doc, err := json.MarshalIndent(suite, "", "  ")
				if err != nil {
					fmt.Fprintln(os.Stderr, "weakscale:", err)
					os.Exit(1)
				}
				buf = append(append(buf, doc...), '\n')
			}
		}
		if *verifyJSON == "-" {
			jsonOut.Write(buf)
		} else if *verifyJSON != "" {
			if err := os.WriteFile(*verifyJSON, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "weakscale:", err)
				os.Exit(1)
			}
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "weakscale: static certification failed (%d findings); not sweeping\n", bad)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "weakscale: static certification passed for every app, node count, and sync lowering")
	}

	for _, app := range apps {
		if *iters > 0 {
			app.Iters = *iters
		}
		app.Opts = opts
		app.Opts.Counters = &bench.Counters{}
		series, err := harness.RunFigureParallel(app, nodes, *workers, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, line)
		if *csv {
			// wall_s (host wall-clock, never identical between runs) is the
			// last column so schedule-equivalence diffs can strip it.
			fmt.Printf("app,system,nodes,per_iter_s,throughput_per_node_%s,error,wall_s\n", strings.ReplaceAll(app.Unit, " ", "_"))
			for _, s := range series {
				for _, p := range s.Points {
					fmt.Printf("%s,%s,%d,%g,%g,%s,%g\n", app.Name, s.System, p.Nodes, p.PerIter.Seconds(), p.Throughput, csvQuote(p.Err), p.Wall.Seconds())
				}
			}
		} else {
			fmt.Print(harness.FormatFigure(app, series))
			fmt.Println()
		}
	}

	if fit != nil {
		launches, copies := fit.Samples()
		buf, err := fit.ExportJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*fitOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "weakscale: wrote fitted time policy (%d launch / %d copy samples) to %s\n",
			launches, copies, *fitOut)
	}
}
