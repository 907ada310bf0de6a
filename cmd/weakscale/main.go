// Command weakscale regenerates the paper's weak-scaling figures (6-9):
// for one application or all of them, it sweeps node counts, runs every
// system variant on the simulated machine, and prints throughput-per-node
// series (optionally as CSV).
//
// Usage:
//
//	weakscale [-app stencil|miniaero|pennant|circuit|all] [-nodes 1,2,...]
//	          [-iters N] [-j workers] [-csv] [-v] [-faults seed:rate]
//	          [-backend des|native] [-procs N]
//	          [-timepolicy modeled|measured] [-fit-in file] [-fit-out file]
//	          [-trace on|off] [-trace-share on|off] [-prune on|off]
//	          [-agg on|off] [-benchjson file] [-verify] [-verify-json file]
//	          [-cpuprofile file] [-memprofile file]
//
// -backend selects the realm backend. The default, des, measures on the
// deterministic discrete-event simulator and reports virtual time. native
// runs the Regent systems' real kernels on real goroutines over shared
// memory and reports wall-clock time; the MPI baselines are DES cost
// models and are dropped from native sweeps. Native sweeps want small
// node counts (each simulated node is a set of goroutines competing for
// the host's cores).
//
// -procs sets the native worker pool's per-node size (0, the default, is
// an equal share of GOMAXPROCS across the simulated nodes). After a native
// sweep the scheduler counters (dispatches, steals, inline completions)
// are printed to stderr.
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
// -verify runs the schedule certifier (internal/verify) over every
// compiled schedule at each swept node count before running it: the race
// pass, the liveness (deadlock-freedom) pass, the specialization-table
// pass, under -prune on the pruning pass, and under -agg on the
// aggregation pass (verify.CheckAgg). The sweep aborts with
// exit status 2 on any finding. -verify-json additionally writes every
// pass's verify.Report (the shared certification schema) as one JSON
// document to the named file ("-" = stdout), and implies -verify.
//
// -prune=on attaches the certified redundant-sync pruning pass to every
// Regent-CR cell: sync edges proven transitively redundant (and dead
// initialization populations) are skipped by the executor. Default off.
// Throughput series and stores are identical either way on the DES; the
// prune counters (edges and init copies removed) are printed to stderr
// after each app and recorded in the -benchjson snapshot.
//
// -agg=on runs every Regent-CR cell with coalesced exchange plans: each
// exchange phase's copy pairs are merged into one message per (producing
// shard, destination shard) aggregation group, licensed per cell by the
// verify.CheckAgg certification pass — the coalescing analogue of the
// prune license. Default off. Throughput series, stores, and bytes sent
// are identical either way on the DES; only message counts drop. The
// coalescing counters (static groups, runtime messages saved) are printed
// to stderr after each app and recorded in the -benchjson snapshot.
// With -prune=on as well, the prune is planned for, and certified on, the
// aggregated schedule.
//
// -trace=off disables runtime trace capture/replay (the PR 3 ablation).
// The printed series are identical either way — tracing only changes host
// wall-clock — so the flag exists to demonstrate exactly that. With
// tracing on, both runtimes' trace counters are printed after each app
// (to stderr, so CSV output stays clean).
//
// -trace-share=off keeps tracing but disables cross-shard sharing: every
// SPMD shard captures its own plan (the O(shards) PR 3 behavior) instead
// of specializing one shared capture. Series are identical either way; the
// capture counters show the O(shards)-vs-O(1) difference.
//
// -benchjson writes the sweep results to a JSON snapshot file (one object
// with the sweep parameters and a flat result row per measurement cell);
// see BENCH_PR3.json at the repo root for an example.
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
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// verifyApp runs the schedule certifier over the app's compiled schedules
// at every swept node count, under both sync lowerings: the race pass, the
// liveness pass, the spec pass, and — when prune is set — the certified
// pruning pass. Every pass emits the shared verify.Report schema; findings
// are printed to stderr prefixed with their pass name, and each (node
// count, sync) suite is appended to out when non-nil. It returns the
// number of findings printed.
func verifyApp(app harness.App, nodes []int, prune, agg bool, out *verify.Suite) int {
	bad := 0
	for _, n := range nodes {
		prog, _ := app.BuildProgram(n)
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			fail := func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "weakscale: %s @ %d nodes (%v): ", app.Name, n, sync)
				fmt.Fprintf(os.Stderr, format+"\n", args...)
				bad++
			}
			plans, err := spmd.CompileAll(prog, cr.Options{NumShards: n, Sync: sync, Agg: agg})
			if err != nil {
				fail("compile: %v", err)
				continue
			}
			suite := &verify.Suite{}
			rep, err := verify.VerifyAll(prog, plans)
			if err != nil {
				fail("verify: %v", err)
				continue
			}
			suite.Add(rep)
			ordered := plansInOrder(prog, plans)
			live := &verify.Report{Pass: "liveness", Findings: []verify.Finding{}}
			for _, plan := range ordered {
				a, err := verify.Analyze(plan)
				if err != nil {
					fail("liveness: %v", err)
					continue
				}
				live.Findings = append(live.Findings, a.CheckLiveness().Findings...)
			}
			suite.Add(live)
			spec := &verify.Report{Pass: "spec", Findings: []verify.Finding{}}
			if err := verify.CheckSpecAll(prog, plans); err != nil {
				spec.Findings = append(spec.Findings, verify.Finding{Kind: "spec", Detail: err.Error()})
			}
			suite.Add(spec)
			if prune {
				for _, plan := range ordered {
					_, prep, err := verify.PlanPrune(plan)
					if err != nil {
						fail("prune: %v", err)
						continue
					}
					suite.Add(prep)
				}
			}
			if agg {
				arep, err := verify.CheckAggAll(prog, plans)
				if err != nil {
					fail("agg: %v", err)
				} else {
					suite.Add(arep)
				}
			}
			for _, r := range suite.Reports {
				for _, f := range r.Findings {
					fail("FAIL [%s] %s", r.Pass, f)
				}
			}
			if out != nil {
				out.Reports = append(out.Reports, suite.Reports...)
			}
		}
	}
	return bad
}

// plansInOrder returns the compiled plans in program order (the plan map's
// iteration order is not deterministic).
func plansInOrder(prog *ir.Program, plans map[*ir.Loop]*cr.Compiled) []*cr.Compiled {
	var out []*cr.Compiled
	for _, s := range prog.Stmts {
		if loop, ok := s.(*ir.Loop); ok {
			if plan, ok := plans[loop]; ok {
				out = append(out, plan)
			}
		}
	}
	return out
}

// benchRow is one measurement cell in the -benchjson snapshot.
type benchRow struct {
	App        string  `json:"app"`
	System     string  `json:"system"`
	Nodes      int     `json:"nodes"`
	Iters      int     `json:"iters"`
	PerIterSec float64 `json:"per_iter_s"`
	Throughput float64 `json:"throughput_per_node"`
	Unit       string  `json:"unit"`
	WallSec    float64 `json:"wall_s"`
	Error      string  `json:"error,omitempty"`
}

// benchSnapshot is the top-level -benchjson document. The host block
// contextualizes wall-clock columns: native per-iteration times are real
// seconds on this many cores, not virtual machine time.
type benchSnapshot struct {
	Nodes      []int  `json:"nodes"`
	Backend    string `json:"backend"`
	HostCPUs   int    `json:"host_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Trace      string `json:"trace"`
	TraceShare string `json:"trace_share"`
	Faults     string `json:"faults,omitempty"`
	Procs      int    `json:"procs,omitempty"`
	TimePolicy string `json:"timepolicy,omitempty"`
	// Prune and PruneCounters are present only under -prune, so default-off
	// snapshots stay byte-identical to pre-prune ones. Agg and AggCounters
	// are likewise present only under -agg.
	Prune         string           `json:"prune,omitempty"`
	PruneCounters map[string]int64 `json:"prune_counters,omitempty"`
	Agg           string           `json:"agg,omitempty"`
	AggCounters   map[string]int64 `json:"agg_counters,omitempty"`
	Results       []benchRow       `json:"results"`
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
	if err != nil || rate < 0 {
		return nil, fmt.Errorf("bad -faults rate %q (want crashes per simulated second >= 0)", rateStr)
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
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "measurement cells to run in parallel (output is identical at any width)")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	verbose := flag.Bool("v", false, "print per-measurement progress")
	faults := flag.String("faults", "", "inject faults: seed:rate (crash rate in crashes per simulated second)")
	backend := flag.String("backend", bench.BackendDES, "realm backend: des (deterministic simulator, virtual time) or native (real goroutines, wall-clock)")
	procs := flag.Int("procs", 0, "native worker pool size per node (0 = an equal share of GOMAXPROCS)")
	timepolicy := flag.String("timepolicy", "modeled", "DES time-charging policy: modeled (Cray-XC cost model) or measured (fitted, needs -fit-in)")
	fitIn := flag.String("fit-in", "", "JSON file of fitted time coefficients to import (with -timepolicy measured)")
	fitOut := flag.String("fit-out", "", "fit a time policy from this native sweep and write its coefficients to this JSON file")
	trace := flag.String("trace", "on", "runtime trace capture/replay: on or off (ablation; results are identical)")
	traceShare := flag.String("trace-share", "on", "cross-shard trace sharing: on or off (ablation; results are identical)")
	benchjson := flag.String("benchjson", "", "write the sweep results as a JSON snapshot to this file")
	prune := flag.String("prune", "off", "certified redundant-sync pruning: off (default) or on (ablation; results are identical, sync edges and messages drop)")
	agg := flag.String("agg", "off", "coalesced exchange plans: off (default) or on (ablation; results are identical, one message per destination shard per exchange phase)")
	doVerify := flag.Bool("verify", false, "run the schedule certifier over every compiled schedule before sweeping (exit 2 on findings)")
	verifyJSON := flag.String("verify-json", "", "write the certification suites as JSON to this file (\"-\" = stdout); implies -verify")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

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

	nodes := harness.DefaultNodes
	if *nodesFlag != "" {
		nodes = nil
		for _, part := range strings.Split(*nodesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "weakscale: bad node count %q\n", part)
				os.Exit(1)
			}
			nodes = append(nodes, n)
		}
	}

	if *backend != bench.BackendDES && *backend != bench.BackendNative {
		fmt.Fprintf(os.Stderr, "weakscale: bad -backend %q (want des or native)\n", *backend)
		os.Exit(1)
	}
	native := *backend == bench.BackendNative

	if *procs < 0 {
		fmt.Fprintf(os.Stderr, "weakscale: bad -procs %d (want >= 0)\n", *procs)
		os.Exit(1)
	}
	if *procs > 0 && !native {
		fmt.Fprintln(os.Stderr, "weakscale: -procs sizes the native worker pool; use -backend native")
		os.Exit(1)
	}

	var fit *realm.MeasuredTime
	if *fitOut != "" {
		if !native {
			fmt.Fprintln(os.Stderr, "weakscale: -fit-out records real kernel durations; use -backend native")
			os.Exit(1)
		}
		fit = realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(1)})
	}
	var policy realm.TimePolicy
	switch *timepolicy {
	case "modeled":
		if *fitIn != "" {
			fmt.Fprintln(os.Stderr, "weakscale: -fit-in needs -timepolicy measured")
			os.Exit(1)
		}
	case "measured":
		if native {
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
		policy = p
	default:
		fmt.Fprintf(os.Stderr, "weakscale: bad -timepolicy %q (want modeled or measured)\n", *timepolicy)
		os.Exit(1)
	}

	var fp *realm.FaultPlan
	if *faults != "" {
		var err error
		if fp, err = parseFaults(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
	}

	noTrace := !onOff("trace", *trace)
	noShare := !onOff("trace-share", *traceShare)
	doPrune := onOff("prune", *prune)
	doAgg := onOff("agg", *agg)

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
		var suites *verify.Suite
		if *verifyJSON != "" {
			suites = &verify.Suite{}
		}
		for _, app := range apps {
			bad += verifyApp(app, nodes, doPrune, doAgg, suites)
		}
		if suites != nil {
			buf, err := json.MarshalIndent(suites, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "weakscale:", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if *verifyJSON == "-" {
				os.Stdout.Write(buf)
			} else if err := os.WriteFile(*verifyJSON, buf, 0o644); err != nil {
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

	snap := benchSnapshot{
		Nodes: nodes, Backend: *backend,
		HostCPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Trace: *trace, TraceShare: *traceShare, Faults: *faults,
	}
	if native {
		snap.Procs = *procs
	} else {
		snap.TimePolicy = *timepolicy
	}
	if doPrune {
		snap.Prune = *prune
	}
	if doAgg {
		snap.Agg = *agg
	}
	for _, app := range apps {
		if *iters > 0 {
			app.Iters = *iters
		}
		app.Faults = fp
		app.Backend = *backend
		app.NoTrace = noTrace
		app.NoShare = noShare
		app.Procs = *procs
		app.Policy = policy
		if fit != nil {
			app.Fit = fit
		}
		var agg *bench.TraceAgg
		if !noTrace {
			agg = &bench.TraceAgg{}
			app.Trace = agg
		}
		var sagg *bench.SchedAgg
		if native {
			sagg = &bench.SchedAgg{}
			app.Sched = sagg
		}
		var pagg *bench.PruneAgg
		if doPrune {
			app.Prune = true
			pagg = &bench.PruneAgg{}
			app.PruneStats = pagg
		}
		var cagg *bench.AggCounters
		if doAgg {
			app.Agg = true
			cagg = &bench.AggCounters{}
			app.AggStats = cagg
		}
		series, err := harness.RunFigureParallel(app, nodes, *workers, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		if agg != nil {
			rtStats, spmdStats := agg.Snapshot()
			fmt.Fprintf(os.Stderr, "weakscale: %s rt trace: %+v\n", app.Name, rtStats)
			fmt.Fprintf(os.Stderr, "weakscale: %s spmd trace: %+v\n", app.Name, spmdStats)
		}
		if sagg != nil {
			ss := sagg.Snapshot()
			fmt.Fprintf(os.Stderr, "weakscale: %s sched: workers=%d dispatches=%d steals=%d (local %d, remote %d) inline=%d\n",
				app.Name, ss.Workers, ss.Dispatches, ss.Steals, ss.LocalSteals, ss.RemoteSteals, ss.InlineCompletions)
		}
		if pagg != nil {
			pc := pagg.Snapshot()
			fmt.Fprintf(os.Stderr, "weakscale: %s prune: edges=%d (war %d, done %d, chain %d) init_copies=%d sync_edges %d->%d\n",
				app.Name, pc["pruned_edges"], pc["pruned_war"], pc["pruned_done"], pc["pruned_chain"],
				pc["pruned_init_copies"], pc["sync_edges_before"], pc["sync_edges_after"])
			if snap.PruneCounters == nil {
				snap.PruneCounters = make(map[string]int64)
			}
			for k, v := range pc {
				snap.PruneCounters[k] += v
			}
		}
		if cagg != nil {
			ac := cagg.Snapshot()
			fmt.Fprintf(os.Stderr, "weakscale: %s agg: phases=%d groups=%d (multi-member %d, merged pairs %d) runtime groups=%d saved_messages=%d messages=%d\n",
				app.Name, ac["phases"], ac["agg_groups"], ac["multi_member_groups"], ac["merged_pairs"],
				ac["runtime_agg_groups"], ac["runtime_saved_messages"], ac["runtime_messages"])
			if snap.AggCounters == nil {
				snap.AggCounters = make(map[string]int64)
			}
			for k, v := range ac {
				snap.AggCounters[k] += v
			}
		}
		for _, s := range series {
			for _, p := range s.Points {
				snap.Results = append(snap.Results, benchRow{
					App: app.Name, System: s.System, Nodes: p.Nodes,
					Iters: app.Iters, PerIterSec: p.PerIter.Seconds(),
					Throughput: p.Throughput, Unit: app.Unit,
					WallSec: p.Wall.Seconds(), Error: p.Err,
				})
			}
		}
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

	if *benchjson != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchjson, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "weakscale:", err)
			os.Exit(1)
		}
	}
}
