package rt

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
)

// runWithTrace runs a freshly built program under the engine and returns
// the result plus the trace counters.
func runWithTrace(t *testing.T, prog *ir.Program, nodes int, mode ir.ExecMode, noTrace bool) (*Result, TraceStats) {
	t.Helper()
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, mode)
	eng.NoTrace = noTrace
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.TraceStats()
}

// TestTraceReplayMatchesUntraced is the core tentpole guarantee: with
// tracing on, the schedule — virtual times, DES statistics, and Real-mode
// region contents — is bitwise identical to the untraced run, and the trace
// actually engages (promotes and replays) rather than silently falling
// back.
func TestTraceReplayMatchesUntraced(t *testing.T) {
	for _, mode := range []ir.ExecMode{ir.ExecReal, ir.ExecModeled} {
		f := progtest.NewFigure2(96, 8, 10)
		ref, offStats := runWithTrace(t, f.Prog, 4, mode, true)
		f2 := progtest.NewFigure2(96, 8, 10)
		got, stats := runWithTrace(t, f2.Prog, 4, mode, false)

		if offStats.LoopsTraced != 0 {
			t.Fatalf("NoTrace engine traced %d loops", offStats.LoopsTraced)
		}
		if stats.Promotions < 1 || stats.ReplayedIters < 6 {
			t.Fatalf("trace did not engage: %+v", stats)
		}
		if stats.Invalidations != 0 || stats.Abandoned != 0 {
			t.Fatalf("stationary loop invalidated or abandoned its trace: %+v", stats)
		}
		if got.Elapsed != ref.Elapsed {
			t.Errorf("mode %v: Elapsed %d with trace, %d without", mode, got.Elapsed, ref.Elapsed)
		}
		if got.Stats != ref.Stats {
			t.Errorf("mode %v: Stats %+v with trace, %+v without", mode, got.Stats, ref.Stats)
		}
		if mode == ir.ExecReal {
			for _, pair := range [][2]*region.Region{{f.A, f2.A}, {f.B, f2.B}} {
				refR, gotR := pair[0], pair[1]
				refSt, gotSt := ref.Stores[refR], got.Stores[gotR]
				refR.IndexSpace().Each(func(p geometry.Point) bool {
					if gotSt.Get(f.Val, p) != refSt.Get(f.Val, p) {
						t.Fatalf("store %s[%v] = %v traced, %v untraced", refR.Name(), p,
							gotSt.Get(f.Val, p), refSt.Get(f.Val, p))
					}
					return true
				})
			}
		}
	}
}

// TestTraceDedupsSharedPoints: a stencil-shaped loop has bitwise-identical
// per-color dependence records (same relative colors, same volumes) across
// interior points, so promotion must alias them to shared slices and count
// the deduplicated points — the cross-point analogue of the SPMD executor's
// cross-shard sharing. Replay correctness under the aliasing is already
// pinned by TestTraceReplayMatchesUntraced; this pins that the dedup
// actually engages.
func TestTraceDedupsSharedPoints(t *testing.T) {
	f := progtest.NewFigure2(96, 8, 10)
	_, stats := runWithTrace(t, f.Prog, 4, ir.ExecModeled, false)
	if stats.Promotions < 1 {
		t.Fatalf("trace did not promote: %+v", stats)
	}
	if stats.SharedPoints == 0 {
		t.Fatalf("promotion deduplicated no launch points: %+v", stats)
	}
}

// TestTraceReplayDeterministic runs the traced engine twice and requires
// identical virtual outcomes.
func TestTraceReplayDeterministic(t *testing.T) {
	a, _ := runWithTrace(t, progtest.NewFigure2(96, 8, 10).Prog, 4, ir.ExecModeled, false)
	b, _ := runWithTrace(t, progtest.NewFigure2(96, 8, 10).Prog, 4, ir.ExecModeled, false)
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("traced run not deterministic: %v/%+v vs %v/%+v", a.Elapsed, a.Stats, b.Elapsed, b.Stats)
	}
}

// repartitionProgram builds a loop that increments a field through a
// disjoint partition, and swaps that partition for a differently-cut one
// (a mid-loop repartition) at iteration swapAt, via a scalar statement's
// side effect on the launch's argument. The second partition is disjoint
// too, or aliased (its first two subregions overlap), which a read-write
// launch must not be given.
func repartitionProgram(n, nt int64, trip, swapAt int, aliased bool) (*ir.Program, *region.Region, region.FieldID) {
	p := ir.NewProgram("repartition")
	fs := region.NewFieldSpace("v")
	v := fs.Field("v")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs

	pa := r.Block("PA", nt)
	// A second partition with the same color count but uneven cuts: the
	// first subregion absorbs half of the second's span.
	subs := make(map[geometry.Point]geometry.IndexSpace, nt)
	step := n / nt
	for i := int64(0); i < nt; i++ {
		lo, hi := i*step, (i+1)*step-1
		switch i {
		case 0:
			hi += step / 2
		case 1:
			if !aliased {
				lo += step / 2
			}
		}
		subs[geometry.Pt1(i)] = geometry.NewIndexSpace(geometry.R1(lo, hi))
	}
	pb := r.BySubsets("PB", geometry.NewIndexSpace(geometry.R1(0, nt-1)), subs)

	task := &ir.TaskDecl{
		Name:   "inc",
		Params: []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{v}}},
		Kernel: func(tc *ir.TaskCtx) {
			arg := &tc.Args[0]
			arg.Each(func(pt geometry.Point) bool {
				arg.Set(v, pt, arg.Get(v, pt)+1)
				return true
			})
		},
		CostPerElem: 100,
	}
	launch := &ir.Launch{Task: task, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pa}}}
	swapped := false
	p.Add(
		&ir.FillFunc{Target: r, Field: v, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
			&ir.SetScalar{Name: "swap", Expr: func(env ir.Env) float64 {
				if !swapped && int(env.Get("t")) == swapAt {
					launch.Args[0].Part = pb
					swapped = true
				}
				return 0
			}},
			launch,
		}},
	)
	return p, r, v
}

// TestTraceRepartitionInvalidatesMidLoop is the repartition half of the
// PR 3 invalidation satellite: swapping a launch's partition mid-loop must
// be caught by the replay fingerprint, fall back to full analysis, produce
// results bitwise identical to the untraced run — and then re-capture and
// re-promote a trace for the new partition.
func TestTraceRepartitionInvalidatesMidLoop(t *testing.T) {
	const trip, swapAt = 14, 6
	prog, r, v := repartitionProgram(64, 8, trip, swapAt, false)
	ref, _ := runWithTrace(t, prog, 4, ir.ExecReal, true)
	prog2, r2, _ := repartitionProgram(64, 8, trip, swapAt, false)
	got, stats := runWithTrace(t, prog2, 4, ir.ExecReal, false)

	if stats.Invalidations < 1 {
		t.Fatalf("repartition did not invalidate the trace: %+v", stats)
	}
	if stats.Promotions < 2 {
		t.Fatalf("trace was not re-promoted after the repartition: %+v", stats)
	}
	if got.Elapsed != ref.Elapsed || got.Stats != ref.Stats {
		t.Errorf("traced: %v/%+v, untraced: %v/%+v", got.Elapsed, got.Stats, ref.Elapsed, ref.Stats)
	}
	refSt, gotSt := ref.Stores[r], got.Stores[r2]
	r.IndexSpace().Each(func(p geometry.Point) bool {
		if gotSt.Get(v, p) != refSt.Get(v, p) {
			t.Fatalf("R[%v] = %v traced, %v untraced", p, gotSt.Get(v, p), refSt.Get(v, p))
		}
		// Every element was incremented once per iteration under both
		// partitionings, so the expected value is known in closed form.
		if want := float64(p.X()) + trip; gotSt.Get(v, p) != want {
			t.Fatalf("R[%v] = %v, want %v", p, gotSt.Get(v, p), want)
		}
		return true
	})
}

// TestRepartitionedLaunchRunsOverNewSubregions: the fixture above cannot
// tell which partition a kernel ran over, since every element gains 1
// whichever colour owns it. With tasks adding 1 + their colour it can: the
// swap at iteration 2 of 4 moves elements 4 and 5 from colour 1 to colour 0,
// so they gain 2+2+1+1 — with the analysis or the trace in charge.
func TestRepartitionedLaunchRunsOverNewSubregions(t *testing.T) {
	for _, noTrace := range []bool{false, true} {
		prog, r, v := repartitionProgram(16, 4, 4, 2, false)
		launch := prog.Stmts[1].(*ir.Loop).Body[1].(*ir.Launch)
		launch.Task.Kernel = func(tc *ir.TaskCtx) {
			arg := &tc.Args[0]
			arg.Each(func(pt geometry.Point) bool {
				arg.Set(v, pt, arg.Get(v, pt)+1+float64(tc.Color.X()))
				return true
			})
		}
		res, _ := runWithTrace(t, prog, 4, ir.ExecReal, noTrace)
		for x := int64(0); x < 16; x++ {
			want := float64(x + 4*(1+x/4))
			if x == 4 || x == 5 {
				want = float64(x + 6)
			}
			if got := res.Stores[r].Get(v, geometry.Pt1(x)); got != want {
				t.Errorf("NoTrace=%v: R[%d] = %v, want %v", noTrace, x, got, want)
			}
		}
	}
}

// TestRepartitionOntoAliasedPartitionRejected: the intra-launch conflict
// check belongs to the launch's partitions, not to the statement, so a
// read-write launch swapped onto an aliased partition is refused whenever
// the swap happens — before the loop's first launch or after its trace has
// been promoted and replayed — and with the analysis or the trace in charge.
func TestRepartitionOntoAliasedPartitionRejected(t *testing.T) {
	const want = "launch inc writes aliased partition PB; tasks of one launch must be independent"
	for _, swapAt := range []int{0, 3} {
		for _, noTrace := range []bool{false, true} {
			prog, _, _ := repartitionProgram(64, 8, 8, swapAt, true)
			eng := New(realm.MustNewSim(testConfig(4)), prog, ir.ExecReal)
			eng.NoTrace = noTrace
			_, err := eng.Run()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("swap at %d, NoTrace=%v: error %v does not carry %q", swapAt, noTrace, err, want)
			}
		}
	}
}

// nonStationaryProgram builds a loop whose launch covers only half of its
// partition's colors: the writer is never "full", so no epoch entry is ever
// pruned and the epoch lists grow every iteration.
func nonStationaryProgram() *ir.Program {
	n, nt := int64(64), int64(8)
	p := ir.NewProgram("nonstationary")
	fs := region.NewFieldSpace("v")
	v := fs.Field("v")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pa := r.Block("PA", nt)
	task := &ir.TaskDecl{
		Name:        "halfinc",
		Params:      []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{v}}},
		CostPerElem: 100,
	}
	p.Add(&ir.Loop{Var: "t", Trip: 12, Body: []ir.Stmt{
		&ir.Launch{Task: task, Domain: ir.Colors1D(nt / 2), Args: []ir.RegionArg{{Part: pa}}},
	}})
	return p
}

// TestTraceNonStationaryFallsBack: a loop whose launch covers only part of
// its partition's color space never dominates old epoch entries, so the
// epoch lists grow every iteration and the analysis has no structural
// fixpoint. Capture must give up after its attempt budget and leave the
// (correct) full analysis in charge.
func TestTraceNonStationaryFallsBack(t *testing.T) {
	ref, _ := runWithTrace(t, nonStationaryProgram(), 2, ir.ExecModeled, true)
	got, stats := runWithTrace(t, nonStationaryProgram(), 2, ir.ExecModeled, false)
	if stats.Abandoned != 1 || stats.Promotions != 0 {
		t.Fatalf("non-stationary loop should abandon capture: %+v", stats)
	}
	if got.Elapsed != ref.Elapsed || got.Stats != ref.Stats {
		t.Errorf("traced: %v/%+v, untraced: %v/%+v", got.Elapsed, got.Stats, ref.Elapsed, ref.Stats)
	}
}

// TestTraceReplayAllocRegression is the PR 3 allocation guard: replayed
// iterations must do near-zero allocation on the analysis path. Measured as
// the per-iteration malloc delta between a long and a short run, so fixed
// setup costs cancel; the traced engine must allocate well under half of
// what the untraced analysis allocates per steady-state iteration.
func TestTraceReplayAllocRegression(t *testing.T) {
	mallocs := func(noTrace bool, trip int) uint64 {
		f := progtest.NewFigure2(256, 16, trip)
		// One node: the event graph carries no cross-node copies, so the DES
		// floor is minimal and the per-iteration delta is dominated by the
		// dependence-analysis path the trace is meant to eliminate.
		sim := realm.MustNewSim(testConfig(1))
		eng := New(sim, f.Prog, ir.ExecModeled)
		eng.NoTrace = noTrace
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	perIter := func(noTrace bool) float64 {
		short := mallocs(noTrace, 20)
		long := mallocs(noTrace, 120)
		return float64(long-short) / 100
	}
	untraced := perIter(true)
	traced := perIter(false)
	t.Logf("allocs per steady-state iteration: untraced=%.1f traced=%.1f", untraced, traced)
	if untraced < 50 {
		t.Fatalf("untraced analysis allocates only %.1f objects/iter; fixture no longer exercises the analysis path", untraced)
	}
	if traced > 24 {
		t.Errorf("replayed iterations allocate %.1f objects/iter; want ~zero (<= 24)", traced)
	}
}
