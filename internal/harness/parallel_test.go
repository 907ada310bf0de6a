package harness

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
)

// stripWall zeroes the wall-clock field, the only part of a measurement
// that legitimately varies between runs.
func stripWall(series []Series) {
	for si := range series {
		for pi := range series[si].Points {
			series[si].Points[pi].Wall = 0
		}
	}
}

// sweepWidths are the widths a sweep is compared at against width 1:
// RunFigure's (0, one worker per CPU) and 4.
var sweepWidths = []int{0, 4}

// TestRunFigureParallelDeterministic checks the tentpole guarantee of the
// parallel harness: a parallel sweep returns exactly the sequential sweep's
// results — same virtual times, same throughputs, same ordering — so the
// formatted figures are byte-identical at any worker count.
func TestRunFigureParallelDeterministic(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int{1, 2, 4}

	seq, err := RunFigureParallel(app, nodes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(seq)
	for _, width := range sweepWidths {
		par, err := RunFigureParallel(app, nodes, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		stripWall(par)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("width %d: parallel sweep differs from sequential:\nseq: %+v\npar: %+v", width, seq, par)
		}
		if a, b := FormatFigure(app, seq), FormatFigure(app, par); a != b {
			t.Fatalf("width %d: formatted figures differ:\nseq:\n%s\npar:\n%s", width, a, b)
		}
	}

	// Progress still fires once per cell, serialized.
	count := 0
	if _, err := RunFigureParallel(app, []int{1, 2}, 4, func(string) { count++ }); err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(app.Systems); count != want {
		t.Errorf("progress fired %d times, want %d", count, want)
	}
}

// TestTable1ParallelDeterministic checks the parallel Table 1 sweep returns
// the sequential rows (the intersection phase timings themselves are wall
// clock and vary either way, so they are zeroed before comparison).
func TestTable1ParallelDeterministic(t *testing.T) {
	strip := func(rows []Table1Row) {
		for i := range rows {
			rows[i].ShallowMs, rows[i].CompleteMs = 0, 0
		}
	}
	seq, err := Table1Parallel([]int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table1Parallel([]int{4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	strip(seq)
	strip(par)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel Table 1 differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunFigureParallelError checks per-cell error isolation: a failing
// cell records its error in the cell's Point and the rest of the sweep
// still runs, identically under sequential and parallel schedules.
func TestRunFigureParallelError(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	// Fail exactly the mpi cells; the regent cells must still measure.
	app.Baseline = func(system string, nodes, iters int) (realm.Time, error) {
		return 0, fmt.Errorf("boom %s@%d", system, nodes)
	}
	check := func(series []Series, err error, label string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: sweep aborted: %v", label, err)
		}
		for _, s := range series {
			for _, p := range s.Points {
				bad := s.System == "mpi" || s.System == "mpi-openmp"
				if bad && p.Err == "" {
					t.Errorf("%s: %s@%d: want recorded error", label, s.System, p.Nodes)
				}
				if !bad && (p.Err != "" || p.PerIter <= 0) {
					t.Errorf("%s: %s@%d: want clean measurement, got err=%q per=%v", label, s.System, p.Nodes, p.Err, p.PerIter)
				}
			}
		}
	}
	seq, seqErr := RunFigureParallel(app, []int{1, 2}, 1, nil)
	check(seq, seqErr, "seq")
	stripWall(seq)
	for _, width := range sweepWidths {
		par, parErr := RunFigureParallel(app, []int{1, 2}, width, nil)
		check(par, parErr, fmt.Sprintf("width %d", width))
		stripWall(par)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("width %d: parallel sweep with failing cells differs from sequential:\nseq: %+v\npar: %+v", width, seq, par)
		}
	}
	// The rendered figure marks the failed columns rather than crashing.
	out := FormatFigure(app, seq)
	if !strings.Contains(out, "err") || !strings.Contains(out, "n/a") {
		t.Errorf("FormatFigure should mark failed cells and efficiencies:\n%s", out)
	}
}

// TestFaultSweepDeterministicIsolation is the fault-sweep smoke test: a
// stencil sweep with injected node crashes completes cell-by-cell — the
// CR cells recover via checkpoint/restart and measure cleanly, the
// implicit-runtime cells (no recovery) record their deadlocks as per-cell
// errors — and the whole thing is deterministic across schedules.
func TestFaultSweepDeterministicIsolation(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	app.Iters = 8
	app.Opts.Faults = &realm.FaultPlan{Seed: 42, CrashRate: 0.05}
	seq, err := RunFigureParallel(app, []int{2, 4}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(seq)
	for _, width := range sweepWidths {
		par, err := RunFigureParallel(app, []int{2, 4}, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		stripWall(par)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("width %d: fault sweep differs across schedules:\nseq: %+v\npar: %+v", width, seq, par)
		}
	}
	nocrErrs := 0
	for _, s := range seq {
		for _, p := range s.Points {
			switch s.System {
			case "regent-cr", "mpi", "mpi-openmp":
				// CR recovers from the crashes; the MPI baselines are measured
				// fault-free (no recovery model exists for them).
				if p.Err != "" || p.PerIter <= 0 {
					t.Errorf("%s@%d: want clean measurement, got err=%q per=%v", s.System, p.Nodes, p.Err, p.PerIter)
				}
			case "regent-nocr":
				if p.Err != "" {
					nocrErrs++
					if !strings.Contains(p.Err, "deadlock") {
						t.Errorf("regent-nocr@%d: want a deadlock diagnosis, got %q", p.Nodes, p.Err)
					}
				}
			}
		}
	}
	if nocrErrs == 0 {
		t.Error("expected the implicit runtime to die on at least one faulted cell (seed 42 is pinned)")
	}
}

// countingApp is the stencil with a counting builder, a constant stand-in
// for its baselines, and the given systems.
func countingApp(t *testing.T, systems ...string) (App, func() map[int]int) {
	t.Helper()
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	builds := map[int]int{}
	build := app.Build
	app.Build = func(nodes, iters int, native bool) (*ir.Program, *ir.Loop, bench.Tuning) {
		mu.Lock()
		builds[nodes]++
		mu.Unlock()
		return build(nodes, iters, native)
	}
	app.Baseline = func(string, int, int) (realm.Time, error) { return realm.Milliseconds(1), nil }
	app.Systems, app.Iters = systems, 8
	return app, func() map[int]int {
		mu.Lock()
		defer mu.Unlock()
		out := builds
		builds = map[int]int{}
		return out
	}
}

// TestSweepBuildsEachProgramOnce: a sweep builds one program per node count
// for the two Regent systems together and none for a baseline, at any
// width, and its series are what measuring every cell on a program of its
// own gives — fault-free and with a fault plan, whose seeds stay per cell.
func TestSweepBuildsEachProgramOnce(t *testing.T) {
	nodes := []int{1, 2, 4}
	once := map[int]int{1: 1, 2: 1, 4: 1}
	for _, faults := range []*realm.FaultPlan{nil, {Seed: 42, CrashRate: 0.05}} {
		app, builds := countingApp(t, "regent-cr", "mpi", "regent-nocr")
		app.Opts.Faults = faults
		var want []Series
		for si, sys := range app.Systems {
			s := Series{System: sys}
			for _, n := range nodes {
				p := Point{Nodes: n}
				per, err := app.Measure(sys, n, app.Iters, bench.MeasureOpts{Faults: app.cellFaults(si, n)})
				if err != nil {
					p.Err = err.Error()
				} else {
					p.PerIter, p.Throughput = per, app.UnitsPerNode/per.Seconds()/app.UnitScale
				}
				s.Points = append(s.Points, p)
			}
			want = append(want, s)
		}
		if died := strings.Contains(fmt.Sprint(want), "deadlock"); died != (faults != nil) {
			t.Errorf("faults %v: a cell died of a crash = %v (seed 42 is pinned)", faults != nil, died)
		}
		if got := builds(); !reflect.DeepEqual(got, map[int]int{1: 2, 2: 2, 4: 2}) {
			t.Errorf("App.Measure built %v programs by node count, want one per Regent cell", got)
		}
		for _, width := range []int{0, 1, 2, 8} {
			got, err := RunFigureParallel(app, nodes, width, nil)
			if err != nil {
				t.Fatal(err)
			}
			stripWall(got)
			if !reflect.DeepEqual(got, want) || FormatFigure(app, got) != FormatFigure(app, want) {
				t.Errorf("faults %v, width %d: sweep differs from cell-by-cell measurement:\nsweep: %+v\ncells: %+v", faults != nil, width, got, want)
			}
			if b := builds(); !reflect.DeepEqual(b, once) {
				t.Errorf("faults %v, width %d: built %v programs by node count, want %v", faults != nil, width, b, once)
			}
		}
	}
	app, builds := countingApp(t, "mpi", "mpi-openmp")
	if _, err := RunFigure(app, nodes, nil); err != nil {
		t.Fatal(err)
	}
	if b := builds(); len(b) != 0 {
		t.Errorf("a baseline-only sweep built %v programs by node count", b)
	}
	app, builds = countingApp(t, "regent-nocr")
	if _, err := RunFigure(app, nodes, nil); err != nil {
		t.Fatal(err)
	}
	if b := builds(); !reflect.DeepEqual(b, once) {
		t.Errorf("a one-system sweep built %v programs by node count, want %v", b, once)
	}
}

// TestSweepDealsLargestNodeCountFirst pins the order a sweep deals its work
// in. At width 1 that is the order cells run, so progress comes out in
// decreasing node count and, within a node count, the Regent systems before
// the baselines, whatever order the node list and App.Systems are in.
func TestSweepDealsLargestNodeCountFirst(t *testing.T) {
	app, _ := countingApp(t, "mpi", "regent-cr", "mpi-openmp", "regent-nocr")
	var got []string
	_, err := RunFigureParallel(app, []int{2, 8, 1, 4}, 1, func(line string) {
		f := strings.Fields(line)
		got = append(got, f[1]+"@"+strings.TrimPrefix(f[2], "nodes="))
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, n := range []int{8, 4, 2, 1} {
		for _, sys := range []string{"regent-cr", "regent-nocr", "mpi", "mpi-openmp"} {
			want = append(want, fmt.Sprintf("%s@%d", sys, n))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cells ran in order\n%v\nwant\n%v", got, want)
	}
}

// TestSweepNativeRunsOneCellAtATime: a native cell's per-iteration time is
// host wall clock, so a native sweep asked for four workers still never has
// two cells in flight. A cell is in flight from its build to its progress
// line (one system, so each unit is one cell).
func TestSweepNativeRunsOneCellAtATime(t *testing.T) {
	app, _ := countingApp(t, "regent-cr")
	app.Opts.Backend = bench.BackendNative
	app.Iters = 4
	var mu sync.Mutex
	inFlight, most := 0, 0
	build := app.Build
	app.Build = func(nodes, iters int, native bool) (*ir.Program, *ir.Loop, bench.Tuning) {
		mu.Lock()
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		return build(nodes, iters, native)
	}
	series, err := RunFigureParallel(app, []int{1, 2, 3, 4}, 4, func(string) {
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range series[0].Points {
		if p.Err != "" || p.PerIter <= 0 {
			t.Errorf("regent-cr@%d: err=%q per=%v, want a clean measurement", p.Nodes, p.Err, p.PerIter)
		}
	}
	if most != 1 {
		t.Errorf("a native sweep at width 4 had %d cells in flight at once, want 1", most)
	}
}

// TestSweepMatchesCellByCellAllApps: sharing a program between a node
// count's two Regent cells changes no modeled number of any figure.
func TestSweepMatchesCellByCellAllApps(t *testing.T) {
	nodes := []int{1, 4, 8}
	if testing.Short() {
		nodes = []int{1, 4}
	}
	for _, app := range Apps() {
		app.Iters = 6
		series, err := RunFigureParallel(app, nodes, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			for _, p := range s.Points {
				per, err := app.Measure(s.System, p.Nodes, app.Iters, bench.MeasureOpts{})
				if err != nil || p.Err != "" || per != p.PerIter {
					t.Errorf("%s %s@%d: the sweep measured %d (%q), the cell alone %d (%v)", app.Name, s.System, p.Nodes, p.PerIter, p.Err, per, err)
				}
			}
		}
	}
}

// TestEverySeriesIsNamed: a series is named whether or not it has cells —
// an empty node list used to return four Series{System: ""} and a header
// with blank columns.
func TestEverySeriesIsNamed(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	app.Iters = 4
	for _, nodes := range [][]int{nil, {2}} {
		series, err := RunFigure(app, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != len(app.Systems) {
			t.Fatalf("nodes %v: %d series, want %d", nodes, len(series), len(app.Systems))
		}
		for si, s := range series {
			if s.System != app.Systems[si] || len(s.Points) != len(nodes) {
				t.Errorf("nodes %v: series %d is %q with %d points, want %q with %d", nodes, si, s.System, len(s.Points), app.Systems[si], len(nodes))
			}
		}
		header := strings.Split(FormatFigure(app, series), "\n")[1]
		if want := fmt.Sprintf("%-8s%18s%18s%18s%18s", "nodes", "regent-cr", "regent-nocr", "mpi", "mpi-openmp"); header != want {
			t.Errorf("nodes %v: header %q, want %q", nodes, header, want)
		}
	}
}
