package cr_test

// Schedule-certifier coverage over the four evaluation applications: the
// liveness pass must prove deadlock-freedom for every compiled schedule,
// the prune pass must certify (and on the p2p apps with cross-shard
// reductions, strictly shrink) every schedule, and recovery certification
// must pass for every failover a crash at an enumerated point makes the
// recovery layer perform — with seeded corruptions of a recorded failover
// rejected by a named witness. Lives in cr_test because internal/verify
// imports cr and the app builders live behind internal/harness.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/spmd"
	"repro/internal/verify"
)

func appNodeCounts(t *testing.T) []int {
	if testing.Short() {
		return []int{2}
	}
	return []int{2, 4}
}

// TestLivenessApps: every application schedule — both lowerings, placement
// optimizer on and off, 2 and 4 nodes — certifies deadlock-free.
func TestLivenessApps(t *testing.T) {
	for _, app := range harness.Apps() {
		for _, nodes := range appNodeCounts(t) {
			prog, _ := app.BuildProgram(nodes)
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				for _, noOpt := range []bool{false, true} {
					name := fmt.Sprintf("%s/%d/%v/noopt=%v", app.Name, nodes, sync, noOpt)
					t.Run(name, func(t *testing.T) {
						plans, err := spmd.CompileAll(prog, cr.Options{NumShards: nodes, Sync: sync, NoPlacementOpt: noOpt})
						if err != nil {
							t.Fatalf("compile: %v", err)
						}
						for _, plan := range plans {
							a, err := verify.Analyze(plan)
							if err != nil {
								t.Fatal(err)
							}
							rep := a.CheckLiveness()
							for _, f := range rep.Findings {
								t.Errorf("liveness: %s", f)
							}
							if rep.Stats.Nodes == 0 {
								t.Error("empty wait-for graph; the check is vacuous")
							}
						}
					})
				}
			}
		}
	}
}

// TestPruneApps: the prune pass certifies every application schedule, and
// on PENNANT and Circuit under p2p — the apps with redundant per-pair war
// sync and dead ghost initializations — it strictly reduces the sync-edge
// count. This is the static half of the -prune acceptance bar.
func TestPruneApps(t *testing.T) {
	for _, app := range harness.Apps() {
		for _, nodes := range appNodeCounts(t) {
			prog, loop := app.BuildProgram(nodes)
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				name := fmt.Sprintf("%s/%d/%v", app.Name, nodes, sync)
				t.Run(name, func(t *testing.T) {
					plan, err := cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: sync})
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					info, rep, err := verify.PlanPrune(plan)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						for _, f := range rep.Findings {
							t.Errorf("prune: %s", f)
						}
						t.Fatal("prune pass rejected a correct schedule")
					}
					before, after := rep.Counters["sync_edges_before"], rep.Counters["sync_edges_after"]
					if after > before {
						t.Errorf("pruning grew the sync-edge count: %d -> %d", before, after)
					}
					strict := app.Name == "pennant" || app.Name == "circuit"
					if strict && sync == cr.PointToPoint {
						if rep.Counters["pruned_edges"] < 1 || after >= before {
							t.Errorf("%s p2p: want strict sync-edge reduction, got pruned_edges=%d edges %d -> %d",
								app.Name, rep.Counters["pruned_edges"], before, after)
						}
					}
					// The attached schedule must re-certify end to end.
					plan.Prune = info
					a, err := verify.Analyze(plan)
					if err != nil {
						t.Fatal(err)
					}
					if r := a.Check(); !r.OK() {
						t.Errorf("pruned schedule fails race check: %v", r.Findings)
					}
					if r := a.CheckLiveness(); !r.OK() {
						t.Errorf("pruned schedule fails liveness: %v", r.Findings)
					}
				})
			}
		}
	}
}

// crashRun runs the compiled loop on the DES with checkpoint/restart every
// two iterations, node crashed failing at the issue of its atLaunch-th
// launch, and returns what the recovery layer reports.
func crashRun(t *testing.T, prog *ir.Program, plan *cr.Compiled, crashed int, atLaunch uint64) *spmd.FaultReport {
	t.Helper()
	sim := realm.MustNewSim(realm.DefaultConfig(plan.Opts.NumShards))
	if err := sim.InjectFaults(realm.FaultPlan{LaunchCrashes: []realm.LaunchCrash{{Node: crashed, AtLaunch: atLaunch}}}); err != nil {
		t.Fatal(err)
	}
	eng := spmd.New(sim, prog, ir.ExecModeled, map[*ir.Loop]*cr.Compiled{plan.Loop: plan})
	eng.Recov = spmd.Recovery{CheckpointEvery: 2, MaxRetries: 3}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || len(res.Faults.Crashes) != 1 {
		t.Fatalf("the crash of node %d at launch %d never fired: %+v", crashed, atLaunch, res.Faults)
	}
	if res.Faults.Unrecovered || len(res.Faults.Rebuilds) == 0 {
		t.Fatalf("the crash was not recovered by a recorded rebuild: %+v", res.Faults)
	}
	return res.Faults
}

// TestRecoveryCertApps runs logical crash points — every app, node count,
// crashed node, and a spread of crash launch indices — on the DES and
// certifies every failover the recovery layer recorded (valid placement,
// every instance restored, resume inside the loop). The loop runs long
// enough for every scheduled crash to fire. The rebuilt shards run the
// compiled plan, which is placement-independent, so Certify certifies its
// schedule once per plan.
func TestRecoveryCertApps(t *testing.T) {
	for _, app := range harness.Apps() {
		for _, nodes := range appNodeCounts(t) {
			prog, loop := app.BuildProgram(nodes)
			loop.Trip = max(loop.Trip, 40)
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				plan, err := cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: sync})
				if err != nil {
					t.Fatalf("%s/%d/%v: compile: %v", app.Name, nodes, sync, err)
				}
				if suite, err := verify.Certify(plan, false); err != nil || !suite.OK() {
					t.Fatalf("%s/%d/%v: the rebuilt schedule does not certify: %v %v", app.Name, nodes, sync, err, suite)
				}
				for crashed := 1; crashed < nodes; crashed++ {
					for _, atLaunch := range []uint64{1, 3, 9, 40} {
						name := fmt.Sprintf("%s/%d/%v/crash=%d@%d", app.Name, nodes, sync, crashed, atLaunch)
						t.Run(name, func(t *testing.T) {
							for _, rs := range crashRun(t, prog, plan, crashed, atLaunch).Rebuilds {
								rep := verify.CertifyRebuild(plan, &rs)
								if rep.Pass != "recovery-cert" {
									t.Errorf("report pass %q, want recovery-cert", rep.Pass)
								}
								for _, f := range rep.Findings {
									t.Errorf("recovery-cert: %s", f)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestRecoveryCertRejectsCorruptRebuilds seeds defects into an otherwise
// valid rebuild and demands rejection with a witness naming the offending
// shard, node, or instance.
func TestRecoveryCertRejectsCorruptRebuilds(t *testing.T) {
	app, err := harness.AppByName("pennant")
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	prog, loop := app.BuildProgram(nodes)
	plan, err := cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: cr.PointToPoint})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *cr.RebuildSpec { return &crashRun(t, prog, plan, 2, 5).Rebuilds[0] }
	if rep := verify.CertifyRebuild(plan, fresh()); !rep.OK() {
		t.Fatalf("base rebuild must certify, got %v", rep.Findings)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(rs *cr.RebuildSpec)
		kind    string
		witness string
	}{
		{"shard assigned to crashed node", func(rs *cr.RebuildSpec) {
			rs.Assign[len(rs.Assign)-1] = 2
		}, "dead-node-assignment", "assigned to crashed node 2"},
		{"missing restore", func(rs *cr.RebuildSpec) {
			rs.Restored[0] = nil
		}, "missing-restore", "not restored from the checkpoint"},
		{"control node crashed", func(rs *cr.RebuildSpec) {
			rs.Crashed = append(rs.Crashed, 0)
		}, "bad-rebuild", "node 0 crashed"},
		{"resume outside loop", func(rs *cr.RebuildSpec) {
			rs.ResumeIter = plan.Loop.Trip + 7
		}, "bad-rebuild", "outside the loop"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := fresh()
			tc.corrupt(rs)
			rep := verify.CertifyRebuild(plan, rs)
			if rep.OK() {
				t.Fatal("corrupted rebuild certified")
			}
			found := false
			for _, f := range rep.Findings {
				if f.Kind == tc.kind && strings.Contains(f.Detail, tc.witness) {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s finding naming %q; got %v", tc.kind, tc.witness, rep.Findings)
			}
		})
	}
}
