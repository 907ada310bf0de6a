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

// runWatched runs prog under control replication in Real mode on a 4-node
// machine of the named backend, compiled with opts and, under Agg or
// prune, certified (the prune attached) as bench.RunCR does. It hands fn
// every loop's run state once the loop has finalized, and checks the
// stores against the sequential interpreter's.
func runWatched(t *testing.T, build func(int) *ir.Program, backend string, opts cr.Options, prune bool, fn func(spmd.LoopRun)) realm.Exec {
	t.Helper()
	prog := build(opts.NumShards)
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
	eng := spmd.New(x, prog, ir.ExecReal, plans)
	spmd.OnLoopFinalized(eng, fn)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := progtest.Diff(ir.ExecSequential(build(opts.NumShards)), &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		t.Error(err)
	}
	return x
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

// TestEverySyncSlotFires: every event of every iteration's sync block is
// triggered by the end of the run, under both lowerings, with aggregation
// and the certifier's prune each off and on. A reserved slot that never
// fires pins its event page for the rest of the run.
func TestEverySyncSlotFires(t *testing.T) {
	for _, app := range pruneApps {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, agg := range []bool{false, true} {
				for _, prune := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%v/agg=%v/prune=%v", app.name, sync, agg, prune), func(t *testing.T) {
						var runs []spmd.LoopRun
						x := runWatched(t, app.build, bench.BackendDES, cr.Options{NumShards: 4, Sync: sync, Agg: agg}, prune, func(r spmd.LoopRun) {
							runs = append(runs, r)
						})
						for _, r := range runs {
							for iter := range r.Plan().Loop.Trip {
								base, size := r.SyncBlock(iter)
								if size > 0 && base == realm.NoEvent {
									t.Fatalf("iteration %d never reserved its %d-event sync block", iter, size)
								}
								for i := range size {
									if !x.Triggered(base + realm.Event(i)) {
										t.Errorf("iteration %d: sync slot %d of %d never fired", iter, i, size)
									}
								}
							}
						}
					})
				}
			}
		}
	}
}
