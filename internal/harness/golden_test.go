package harness

import (
	"testing"

	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/rt"
	"repro/internal/spmd"
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
	app := stencil.Build(stencil.Small(4))
	cores := realm.DefaultConfig(4).CoresPerNode
	tune := bench.DefaultTuning(cores)

	sim := realm.MustNewSim(realm.DefaultConfig(4))
	eng := rt.New(sim, app.Prog, ir.ExecModeled)
	eng.Over.LaunchBase = tune.ImplicitLaunchBase
	eng.Over.LaunchPerSub = tune.ImplicitLaunchPerSub
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.ImplicitWindow
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := realm.Time(130964599); res.Elapsed != want {
		t.Errorf("rt elapsed = %d, want %d", res.Elapsed, want)
	}
	if want := (realm.Stats{Messages: 34, BytesSent: 7424, LocalCopies: 0, TasksRun: 48, Events: 110}); res.Stats != want {
		t.Errorf("rt stats = %+v, want %+v", res.Stats, want)
	}

	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4, Sync: cr.PointToPoint})
	if err != nil {
		t.Fatal(err)
	}
	sim2 := realm.MustNewSim(realm.DefaultConfig(4))
	eng2 := spmd.New(sim2, app.Prog, ir.ExecModeled, map[*ir.Loop]*cr.Compiled{app.Loop: plan})
	eng2.Over.ShardLaunchBase = tune.ShardLaunchBase
	eng2.Over.KernelCores = tune.KernelCores
	eng2.Over.Window = tune.Window
	res2, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := realm.Time(155392); res2.Elapsed != want {
		t.Errorf("spmd elapsed = %d, want %d", res2.Elapsed, want)
	}
	if want := (realm.Stats{Messages: 45, BytesSent: 16800, LocalCopies: 7, TasksRun: 72, Events: 184}); res2.Stats != want {
		t.Errorf("spmd stats = %+v, want %+v", res2.Stats, want)
	}
}
