package spmd_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/region"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// watchedEngine compiles prog with opts and, under Agg or prune, certifies
// it (the prune attached) as bench.RunCR does. It returns an engine that
// runs prog in mode on a 4-node machine of the named backend and hands fn
// every loop's run state once the loop has finalized.
func watchedEngine(t *testing.T, prog *ir.Program, backend string, mode ir.ExecMode, opts cr.Options, prune bool, fn func(spmd.LoopRun)) *spmd.Engine {
	t.Helper()
	plans, err := spmd.CompileAll(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Agg || prune {
		for _, plan := range plans {
			suite, err := verify.Certify(plan, prune)
			if err != nil || !suite.OK() {
				t.Fatalf("certify: %v, %d findings", err, suite.NumFindings())
			}
		}
	}
	var x realm.Exec
	if backend == bench.BackendNative {
		x = native.MustNewMachine(realm.DefaultConfig(opts.NumShards))
	} else {
		x = realm.MustNewSim(realm.DefaultConfig(opts.NumShards))
	}
	eng := spmd.New(x, prog, mode, plans)
	spmd.OnLoopFinalized(eng, fn)
	return eng
}

// runWatched runs prog under control replication in Real mode through
// watchedEngine and checks the stores against the sequential
// interpreter's. It returns the machine the engine ran on.
func runWatched(t *testing.T, build func(int) *ir.Program, backend string, opts cr.Options, prune bool, fn func(spmd.LoopRun)) realm.Exec {
	t.Helper()
	eng := watchedEngine(t, build(opts.NumShards), backend, ir.ExecReal, opts, prune, fn)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := progtest.Diff(ir.ExecSequential(build(opts.NumShards)), &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		t.Error(err)
	}
	return eng.Sim
}

// sortedFields is a field list in ID order, as Store.Fields returns one.
func sortedFields(fs []region.FieldID) []region.FieldID {
	out := slices.Clone(fs)
	slices.Sort(out)
	return out
}

// TestInstancesHoldInstFields: every SPMD instance holds exactly the
// fields its plan moves through it (InstFields), and every reduce
// temporary exactly the fields of the parameter it folds, for every app,
// lowering and aggregation setting, on both backends.
func TestInstancesHoldInstFields(t *testing.T) {
	for _, app := range pruneApps {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, agg := range []bool{false, true} {
				for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
					t.Run(fmt.Sprintf("%s/%v/agg=%v/%s", app.name, sync, agg, backend), func(t *testing.T) {
						loops, temps := 0, 0
						runWatched(t, app.build, backend, cr.Options{NumShards: 4, Sync: sync, Agg: agg}, false, func(r spmd.LoopRun) {
							loops++
							plan := r.Plan()
							for _, part := range plan.UsedParts {
								want := sortedFields(plan.InstFields[part])
								for _, col := range plan.Domain {
									if got := r.Instance(part, col).Fields(); !slices.Equal(got, want) {
										t.Errorf("instance %s%v holds fields %v, want %v", part.Name(), col, got, want)
									}
								}
							}
							r.Temps(func(l *ir.Launch, arg int, s *region.Store) {
								temps++
								if got, want := s.Fields(), sortedFields(l.Task.Params[arg].Fields); !slices.Equal(got, want) {
									t.Errorf("reduce temporary of %s argument %d holds fields %v, want %v", l.Task.Name, arg, got, want)
								}
							})
						})
						if loops == 0 {
							t.Fatal("no replicated loop finalized")
						}
						if (app.name == "pennant" || app.name == "circuit") && temps == 0 {
							t.Errorf("%s made no reduce temporary", app.name)
						}
					})
				}
			}
		}
	}
}

// TestEverySyncSlotFires: every event a fault-free run creates — each
// iteration's sync block among them — is triggered by the end of the run,
// under both lowerings, with aggregation and the certifier's prune each off
// and on. A reserved slot that never fires pins its event page for the rest
// of the run. The machine's node-fail events, made with it, fire only on a
// crash.
func TestEverySyncSlotFires(t *testing.T) {
	for _, app := range pruneApps {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, agg := range []bool{false, true} {
				for _, prune := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%v/agg=%v/prune=%v", app.name, sync, agg, prune), func(t *testing.T) {
						x := runWatched(t, app.build, bench.BackendDES, cr.Options{NumShards: 4, Sync: sync, Agg: agg}, prune, func(spmd.LoopRun) {})
						fresh, unfired := x.NewUserEvent(), 0
						failEvs := map[realm.Event]bool{}
						for n := 0; n < x.Nodes(); n++ {
							failEvs[x.NodeFailEvent(n)] = true
						}
						for ev := realm.NoEvent + 1; ev < fresh; ev++ {
							if !x.Triggered(ev) && !failEvs[ev] {
								if unfired++; unfired == 1 {
									t.Errorf("event %d of %d never fired", ev, fresh-1)
								}
							}
						}
						if unfired > 1 {
							t.Errorf("%d events never fired", unfired)
						}
					})
				}
			}
		}
	}
}
