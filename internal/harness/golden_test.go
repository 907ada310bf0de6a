package harness

import (
	"testing"

	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
)

// The golden values below pin the simulation's virtual-time results: the
// DES is deterministic, so any drift in these numbers means a behavioral
// change in the event queue, the dependence analysis, or the compiled
// communication plans — not noise. They were captured from the seed
// implementation and must survive performance work unchanged.
//
// One deliberate exception: the seed's BytesSent counters (rt 7808, spmd
// 17376) were inflated by a geometry aliasing bug — IndexSpace.Subtract
// with an empty subtrahend returned a space sharing the receiver's span
// slice, and the following coalesce mutated that shared backing array in
// place, leaving the receiver with a duplicated trailing span whose volume
// was then double-counted in modeled copy sizes. The corrected values are
// pinned here; TestSubtractDoesNotMutateReceiver in internal/geometry
// guards the underlying invariant.

func TestGoldenStencilMeasure(t *testing.T) {
	want := map[string]map[int]realm.Time{
		"regent-cr":   {1: 1146666666, 4: 1146780166},
		"regent-nocr": {1: 1151184666, 4: 1168484191},
		"mpi":         {1: 1146666666, 4: 1146802158},
		"mpi-openmp":  {1: 1147579999, 4: 1147710499},
	}
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range app.Systems {
		for _, n := range []int{1, 4} {
			per, err := app.Measure(sys, n, 10, bench.MeasureOpts{})
			if err != nil {
				t.Fatalf("measure %s@%d: %v", sys, n, err)
			}
			if w := want[sys][n]; per != w {
				t.Errorf("stencil %s@%d per-iteration time = %d, want %d", sys, n, per, w)
			}
		}
	}
}

func TestGoldenEngineRuns(t *testing.T) {
	tune := bench.DefaultTuning(realm.DefaultConfig(4).CoresPerNode)
	cfg := bench.Config{Nodes: 4, Mode: ir.ExecModeled, Tune: &tune}
	res := must(t)(bench.RunImplicit(stencil.Build(stencil.Small(4)).Prog, cfg))
	if want := realm.Time(130964599); res.Elapsed != want {
		t.Errorf("rt elapsed = %d, want %d", res.Elapsed, want)
	}
	if want := (realm.Stats{Messages: 34, BytesSent: 7424, LocalCopies: 0, TasksRun: 48, Events: 110}); res.Stats != want {
		t.Errorf("rt stats = %+v, want %+v", res.Stats, want)
	}

	res = must(t)(bench.RunCR(stencil.Build(stencil.Small(4)).Prog, cfg))
	if want := realm.Time(155392); res.Elapsed != want {
		t.Errorf("spmd elapsed = %d, want %d", res.Elapsed, want)
	}
	if want := (realm.Stats{Messages: 45, BytesSent: 16800, LocalCopies: 7, TasksRun: 72, Events: 184}); res.Stats != want {
		t.Errorf("spmd stats = %+v, want %+v", res.Stats, want)
	}
}
