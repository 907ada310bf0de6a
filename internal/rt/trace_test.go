package rt_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/rt"
)

// TestTraceReplayMatchesUntraced is the core tentpole guarantee: with
// tracing on, the schedule — virtual times, DES statistics, and Real-mode
// region contents — is bitwise identical to the untraced run, and the trace
// actually engages (promotes and replays) rather than silently falling
// back.
func TestTraceReplayMatchesUntraced(t *testing.T) {
	for _, mode := range []ir.ExecMode{ir.ExecReal, ir.ExecModeled} {
		cfg := bench.Config{Nodes: 4, Mode: mode}
		got := must(t)(bench.RunImplicit(figure2(96, 8, 10)(), cfg))
		cfg.NoTrace = true
		ref := must(t)(bench.RunImplicit(figure2(96, 8, 10)(), cfg))

		if ref.ImplicitTrace.LoopsTraced != 0 {
			t.Fatalf("NoTrace engine traced %d loops", ref.ImplicitTrace.LoopsTraced)
		}
		stats := got.ImplicitTrace
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
		diff(t, ref.SeqResult, got)
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
	stats := must(t)(bench.RunImplicit(figure2(96, 8, 10)(), bench.Config{Nodes: 4, Mode: ir.ExecModeled})).ImplicitTrace
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
	cfg := bench.Config{Nodes: 4, Mode: ir.ExecModeled}
	a := must(t)(bench.RunImplicit(figure2(96, 8, 10)(), cfg))
	b := must(t)(bench.RunImplicit(figure2(96, 8, 10)(), cfg))
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("traced run not deterministic: %v/%+v vs %v/%+v", a.Elapsed, a.Stats, b.Elapsed, b.Stats)
	}
}

// TestTraceRepartitionInvalidatesMidLoop is the repartition half of the
// PR 3 invalidation satellite: swapping a launch's partition mid-loop must
// be caught by the replay fingerprint, fall back to full analysis, produce
// results bitwise identical to the untraced run — and then re-capture and
// re-promote a trace for the new partition.
func TestTraceRepartitionInvalidatesMidLoop(t *testing.T) {
	const trip, swapAt = 14, 6
	cfg := bench.Config{Nodes: 4}
	prog, r, v := rt.RepartitionProgram(64, 8, trip, swapAt, false)
	got := must(t)(bench.RunImplicit(prog, cfg))
	prog, _, _ = rt.RepartitionProgram(64, 8, trip, swapAt, false)
	cfg.NoTrace = true
	ref := must(t)(bench.RunImplicit(prog, cfg))
	stats := got.ImplicitTrace

	if stats.Invalidations < 1 {
		t.Fatalf("repartition did not invalidate the trace: %+v", stats)
	}
	if stats.Promotions < 2 {
		t.Fatalf("trace was not re-promoted after the repartition: %+v", stats)
	}
	if got.Elapsed != ref.Elapsed || got.Stats != ref.Stats {
		t.Errorf("traced: %v/%+v, untraced: %v/%+v", got.Elapsed, got.Stats, ref.Elapsed, ref.Stats)
	}
	diff(t, ref.SeqResult, got)
	// Every element was incremented once per iteration under both
	// partitionings, so the expected value is known in closed form.
	r.IndexSpace().Each(func(p geometry.Point) bool {
		if want := float64(p.X()) + trip; got.Stores[r].Get(v, p) != want {
			t.Fatalf("R[%v] = %v, want %v", p, got.Stores[r].Get(v, p), want)
		}
		return true
	})
}

// TestRepartitionedLaunchRunsOverNewSubregions: RepartitionProgram cannot
// tell which partition a kernel ran over, since every element gains 1
// whichever colour owns it. With tasks adding 1 + their colour it can: the
// swap at iteration 2 of 4 moves elements 4 and 5 from colour 1 to colour 0,
// so they gain 2+2+1+1 — with the analysis or the trace in charge.
func TestRepartitionedLaunchRunsOverNewSubregions(t *testing.T) {
	for _, noTrace := range []bool{false, true} {
		prog, r, v := rt.RepartitionProgram(16, 4, 4, 2, false)
		launch := prog.Stmts[1].(*ir.Loop).Body[1].(*ir.Launch)
		launch.Task.Kernel = func(tc *ir.TaskCtx) {
			arg := &tc.Args[0]
			arg.Each(func(pt geometry.Point) bool {
				arg.Set(v, pt, arg.Get(v, pt)+1+float64(tc.Color.X()))
				return true
			})
		}
		res := must(t)(bench.RunImplicit(prog, bench.Config{MeasureOpts: bench.MeasureOpts{NoTrace: noTrace}, Nodes: 4}))
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
			prog, _, _ := rt.RepartitionProgram(64, 8, 8, swapAt, true)
			_, err := bench.RunImplicit(prog, bench.Config{MeasureOpts: bench.MeasureOpts{NoTrace: noTrace}, Nodes: 4})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("swap at %d, NoTrace=%v: error %v does not carry %q", swapAt, noTrace, err, want)
			}
		}
	}
}

// TestTraceNonStationaryFallsBack: a loop whose launch covers only part of
// its partition's color space never dominates old epoch entries, so the
// epoch lists grow every iteration and the analysis has no structural
// fixpoint. Capture must give up after its attempt budget and leave the
// (correct) full analysis in charge.
func TestTraceNonStationaryFallsBack(t *testing.T) {
	cfg := bench.Config{Nodes: 2, Mode: ir.ExecModeled}
	got := must(t)(bench.RunImplicit(rt.NonStationaryProgram(), cfg))
	cfg.NoTrace = true
	ref := must(t)(bench.RunImplicit(rt.NonStationaryProgram(), cfg))
	if stats := got.ImplicitTrace; stats.Abandoned != 1 || stats.Promotions != 0 {
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
		prog := figure2(256, 16, trip)()
		// One node: the event graph carries no cross-node copies, so the DES
		// floor is minimal and the per-iteration delta is dominated by the
		// dependence-analysis path the trace is meant to eliminate. The
		// machine's construction is a fixed cost, so it cancels too.
		cfg := bench.Config{MeasureOpts: bench.MeasureOpts{NoTrace: noTrace}, Nodes: 1, Mode: ir.ExecModeled}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		must(t)(bench.RunImplicit(prog, cfg))
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
