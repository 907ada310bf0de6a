// Package harness regenerates the paper's evaluation section: the four
// weak-scaling figures (6: Stencil, 7: MiniAero, 8: PENNANT, 9: Circuit)
// and Table 1 (dynamic region-intersection times). It is shared by the
// top-level benchmarks and the cmd/weakscale and cmd/intersect tools.
package harness

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
)

// App describes one application's weak-scaling experiment.
type App struct {
	Name    string
	Figure  int
	Systems []string
	// Build builds the program the Regent systems ("regent-cr",
	// "regent-nocr") run at a node count, and the tuning they run it under.
	// iters > 0 replaces the app's own iteration count; native asks for the
	// configuration sized for real kernels. Only Build writes the program
	// (engines own their stores; the one lazy field, Partition.Union, is
	// sync.Once-guarded), so one program serves both systems.
	Build func(nodes, iters int, native bool) (*ir.Program, *ir.Loop, bench.Tuning)
	// Baseline measures one of the app's other systems: the hand-written
	// MPI(+X) codes, which are DES cost models with no program to build.
	Baseline func(system string, nodes, iters int) (realm.Time, error)
	// UnitsPerNode is the per-node work per iteration; Unit/UnitScale name
	// and scale the throughput axis exactly as the paper's figures do.
	UnitsPerNode float64
	Unit         string
	UnitScale    float64
	// Iters is the default iteration count per measurement.
	Iters int
	// Opts is how every cell of a sweep is measured, handed to each by value
	// with one replacement: a cell's Faults is its own plan, derived from
	// Opts.Faults (see cellFaults). On the native backend the systems that
	// exist only as DES cost models (the MPI baselines) are dropped from the
	// sweep.
	Opts bench.MeasureOpts
}

// Apps returns the four evaluation applications in figure order.
func Apps() []App {
	return []App{
		{
			Name: "stencil", Figure: 6, Systems: stencil.Systems,
			Build: stencil.Program, Baseline: stencil.Baseline,
			UnitsPerNode: 40000 * 40000, Unit: "10^6 points/s", UnitScale: 1e6,
			Iters: 10,
		},
		{
			Name: "miniaero", Figure: 7, Systems: miniaero.Systems,
			Build: miniaero.Program, Baseline: miniaero.Baseline,
			UnitsPerNode: miniaero.PaperCellsPerNode, Unit: "10^3 cells/s", UnitScale: 1e3,
			Iters: 10,
		},
		{
			Name: "pennant", Figure: 8, Systems: pennant.Systems,
			Build: pennant.Program, Baseline: pennant.Baseline,
			UnitsPerNode: pennant.PaperZonesPerNode, Unit: "10^6 zones/s", UnitScale: 1e6,
			Iters: 12,
		},
		{
			Name: "circuit", Figure: 9, Systems: circuit.Systems,
			Build:        circuit.Program,
			UnitsPerNode: circuit.PaperNodesPerPiece, Unit: "10^3 nodes/s", UnitScale: 1e3,
			Iters: 10,
		},
	}
}

// AppByName finds an application.
func AppByName(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("harness: unknown app %q (have stencil, miniaero, pennant, circuit)", name)
}

// DefaultNodes is the paper's weak-scaling node sweep.
var DefaultNodes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Point is one measurement. A cell whose measurement failed (the
// simulated run errored — e.g. an injected crash the system under test
// could not recover from) carries the error text in Err and zero values
// elsewhere; the rest of the sweep is unaffected.
type Point struct {
	Nodes      int
	PerIter    realm.Time
	Throughput float64 // units/s per node, divided by UnitScale
	// Wall is the host time the cell took; a node count's first Regent
	// cell builds the program its second reuses, and its Wall includes that.
	Wall time.Duration
	Err  string
}

// Series is one system's curve.
type Series struct {
	System string
	Points []Point
}

// runCells runs fn(0..n-1) on a pool of at most `workers` goroutines
// (workers < 1 means one per available CPU). Cells are handed out in index
// order, so a caller that wants its most expensive cells started first
// numbers them first. With one worker the calls run inline, in order, with
// no goroutines — the sequential path is the parallel path at width 1, not
// separate code.
func runCells(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := int64(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//detlint:ignore the pool only decides which worker runs a cell; cells share no mutable state and results are stored by cell index
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunFigure sweeps every system of the app across the node counts on one
// worker per CPU. It is RunFigureParallel at the width weakscale's -j
// defaults to, and returns what the sweep returns at any width.
func RunFigure(app App, nodes []int, progress func(string)) ([]Series, error) {
	return RunFigureParallel(app, nodes, 0, progress)
}

// RunFigureParallel sweeps every (system, node count) cell of the app over
// a worker pool of the given width (workers < 1 means one per CPU). A
// worker takes one node count's Regent cells together: it builds that node
// count's program once, measures it under each Regent system back to back,
// and drops it, so a program lives for one node count of one sweep, is never
// seen by two goroutines, and no sweep reuses another's. Every other cell
// is a unit of its own. Each measurement makes its own simulator and engine
// and the shared program is read-only once built (see App.Build), so cells
// share no mutable state; results are stored by cell index, which makes the
// returned series — and therefore FormatFigure's output — byte-identical
// at any width. Work is dealt in decreasing node count, and within a node
// count the Regent unit before the baselines: a cell's cost grows steeply
// with its node count, so the largest start first and the small ones fill
// in behind them. Only the order of progress lines (serialized by a mutex)
// and the per-point Wall clock depend on the schedule. A native sweep runs
// at width 1 whatever it is asked for: its per-iteration times are host
// wall clock, which a cell measures correctly only with the cores to itself.
// A failing cell does not abort the sweep: its error is recorded in the
// cell's Point.Err and every other cell still runs (under fault injection
// some cells are expected to die — the MPI baselines have no recovery).
func RunFigureParallel(app App, nodes []int, workers int, progress func(string)) ([]Series, error) {
	if app.Opts.NativeBackend() {
		workers = 1
	}
	systems := app.ActiveSystems()
	out := make([]Series, len(systems))
	// units are the system indices measured together at each node count:
	// the Regent systems as one unit, every other system alone.
	var regent []int
	var units [][]int
	for si, sys := range systems {
		out[si] = Series{System: sys, Points: make([]Point, len(nodes))}
		if isRegent(sys) {
			regent = append(regent, si)
		} else {
			units = append(units, []int{si})
		}
	}
	if len(regent) > 0 {
		units = append([][]int{regent}, units...)
	}
	// byCost lists the node indices largest node count first.
	byCost := make([]int, len(nodes))
	for ni := range byCost {
		byCost[ni] = ni
	}
	slices.SortStableFunc(byCost, func(a, b int) int { return cmp.Compare(nodes[b], nodes[a]) })
	var progressMu sync.Mutex
	runCells(len(nodes)*len(units), workers, func(i int) {
		ni := byCost[i/len(units)]
		n := nodes[ni]
		measure := app.measurer(n, app.Iters)
		for _, si := range units[i%len(units)] {
			t0 := time.Now() //detlint:ignore host wall clock, reported as Point.Wall only
			opts := app.Opts
			opts.Faults = app.cellFaults(si, n)
			per, err := measure(systems[si], opts)
			p := Point{Nodes: n, Wall: time.Since(t0)} //detlint:ignore host wall clock, reported as Point.Wall only
			line := fmt.Sprintf("%-10s %-16s nodes=%-5d ", app.Name, systems[si], n)
			if err != nil {
				p.Err = err.Error()
				line += fmt.Sprintf("ERROR: %v", err)
			} else {
				p.PerIter, p.Throughput = per, app.UnitsPerNode/per.Seconds()/app.UnitScale
				line += fmt.Sprintf("thr/node=%10.1f %s (sim wall %v)", p.Throughput, app.Unit, p.Wall.Round(time.Millisecond))
			}
			out[si].Points[ni] = p
			if progress != nil {
				progressMu.Lock()
				progress(line)
				progressMu.Unlock()
			}
		}
	})
	return out, nil
}

// Measure returns the steady-state per-iteration time for one system at
// one node count, under the given measurement options: a sweep cell on its
// own, program build included.
func (a App) Measure(system string, nodes, iters int, opts bench.MeasureOpts) (realm.Time, error) {
	return a.measurer(nodes, iters)(system, opts)
}

// measurer returns the function that measures the app's systems at one node
// count. The first Regent system measured builds the program and the other
// reuses it; the program lives as long as the returned function.
func (a App) measurer(nodes, iters int) func(system string, opts bench.MeasureOpts) (realm.Time, error) {
	var prog *ir.Program
	var loop *ir.Loop
	var tune bench.Tuning
	return func(system string, opts bench.MeasureOpts) (realm.Time, error) {
		switch {
		case !slices.Contains(a.Systems, system):
			return 0, fmt.Errorf("%s: unknown system %q", a.Name, system)
		case !isRegent(system) && opts.NativeBackend():
			return 0, &realm.UnsupportedError{Backend: opts.Backend, Op: "the hand-written MPI baseline"}
		case !isRegent(system):
			return a.Baseline(system, nodes, iters)
		}
		if prog == nil {
			prog, loop, tune = a.Build(nodes, iters, opts.NativeBackend())
		}
		if system == "regent-cr" {
			return bench.MeasureCR(prog, loop, nodes, cr.PointToPoint, tune, opts)
		}
		return bench.MeasureImplicit(prog, loop, nodes, tune, opts)
	}
}

// BuildProgram builds the app's program and main loop at a node count as
// the DES sweep's Regent cells run it, with the app's own iteration count
// (Table 1, crc, trace, weakscale -verify).
func (a App) BuildProgram(nodes int) (*ir.Program, *ir.Loop) {
	prog, loop, _ := a.Build(nodes, 0, false)
	return prog, loop
}

// isRegent reports whether the system runs the app's Regent program, with
// or without control replication, rather than a hand-written baseline.
func isRegent(system string) bool { return system == "regent-cr" || system == "regent-nocr" }

// ActiveSystems returns the systems the sweep actually measures under the
// app's backend: all of them on the DES, only the Regent variants (with
// and without control replication) on native — the MPI baselines are pure
// DES cost models with no kernels to execute.
func (a App) ActiveSystems() []string {
	if !a.Opts.NativeBackend() {
		return a.Systems
	}
	var out []string
	for _, s := range a.Systems {
		if isRegent(s) {
			out = append(out, s)
		}
	}
	return out
}

// cellFaults derives the fault plan for one sweep cell from Opts.Faults.
// Each cell gets its own seed, mixed from the sweep seed, the system index,
// and the node count, so cells see independent fault sequences yet every
// cell stays individually reproducible. Nil when the sweep is fault-free.
func (a App) cellFaults(si, nodes int) *realm.FaultPlan {
	if a.Opts.Faults == nil {
		return nil
	}
	fp := *a.Opts.Faults
	fp.Seed ^= uint64(si+1)*0x9e3779b97f4a7c15 ^ uint64(nodes)*0xbf58476d1ce4e5b9
	return &fp
}

// FormatFigure renders the series as the paper's figure data: throughput
// per node by node count, plus parallel efficiencies at the largest count.
// Failed cells render as "err"; an efficiency whose endpoints include a
// failed cell renders as "n/a".
func FormatFigure(app App, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s weak scaling — throughput per node (%s)\n", app.Figure, app.Name, app.Unit)
	fmt.Fprintf(&b, "%-8s", "nodes")
	for _, s := range series {
		fmt.Fprintf(&b, "%18s", s.System)
	}
	b.WriteString("\n")
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%-8d", series[0].Points[i].Nodes)
		for _, s := range series {
			if s.Points[i].Err != "" {
				fmt.Fprintf(&b, "%18s", "err")
			} else {
				fmt.Fprintf(&b, "%18.1f", s.Points[i].Throughput)
			}
		}
		b.WriteString("\n")
	}
	last := len(series[0].Points) - 1
	fmt.Fprintf(&b, "parallel efficiency at %d nodes:", series[0].Points[last].Nodes)
	for _, s := range series {
		if s.Points[0].Err != "" || s.Points[last].Err != "" {
			fmt.Fprintf(&b, "  %s n/a", s.System)
		} else {
			fmt.Fprintf(&b, "  %s %.1f%%", s.System, 100*s.Points[last].Throughput/s.Points[0].Throughput)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Table1Row is one application's intersection timings at one node count
// (paper Table 1): the wall-clock milliseconds of the shallow phase (run
// once, on one node) and of the complete phase (run in parallel across
// nodes, so reported per node).
type Table1Row struct {
	App                    string
	Nodes                  int
	ShallowMs, CompleteMs  float64
	Candidates, FinalPairs int
}

// Table1Parallel measures the dynamic intersection phases for every app at
// the given node counts by compiling each application's main loop and
// reading the compiler's phase timings. The (app, node count) cells run over
// a worker pool of the given width (workers < 1 means one per CPU). Rows are
// collected by cell index and stably sorted by app name, so the output is
// identical at any width; the measured phase timings themselves are
// wall-clock and vary run to run either way.
func Table1Parallel(nodeCounts []int, workers int) ([]Table1Row, error) {
	apps := Apps()
	type cellKey struct{ ai, ni int }
	cells := make([]cellKey, 0, len(apps)*len(nodeCounts))
	for ai := range apps {
		for ni := range nodeCounts {
			cells = append(cells, cellKey{ai, ni})
		}
	}
	rows := make([]Table1Row, len(cells))
	errs := make([]error, len(cells))
	runCells(len(cells), workers, func(i int) {
		app, n := apps[cells[i].ai], nodeCounts[cells[i].ni]
		prog, loop := app.BuildProgram(n)
		plan, err := cr.Compile(prog, loop, cr.Options{NumShards: n, Sync: cr.PointToPoint})
		if err != nil {
			errs[i] = fmt.Errorf("%s@%d: %w", app.Name, n, err)
			return
		}
		rows[i] = Table1Row{
			App:        app.Name,
			Nodes:      n,
			ShallowMs:  float64(plan.Timings.Shallow.Microseconds()) / 1000,
			CompleteMs: float64(plan.Timings.Complete.Microseconds()) / 1000 / float64(n),
			Candidates: plan.Timings.Candidates,
			FinalPairs: plan.Timings.Pairs,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	return rows, nil
}

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Running times for region intersections\n")
	fmt.Fprintf(&b, "%-10s %-7s %12s %13s %12s %10s\n", "App", "Nodes", "Shallow(ms)", "Complete(ms)", "Candidates", "Pairs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-7d %12.1f %13.1f %12d %10d\n", r.App, r.Nodes, r.ShallowMs, r.CompleteMs, r.Candidates, r.FinalPairs)
	}
	return b.String()
}
