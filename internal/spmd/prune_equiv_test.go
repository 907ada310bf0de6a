// Dynamic validation of certified sync pruning: for every evaluation app,
// both lowerings, and both execution backends, a run with the certified
// prune attached must produce bitwise-identical final stores to the
// unpruned run — pruning may only remove redundant sync and dead
// initialization copies, never change a value. On top of equivalence,
// pruning must strictly reduce the DES message count where dead
// cross-node init copies exist (PENNANT under p2p).
//
// Lives in an external test package so it can import the app builders
// without adding them to spmd's own dependencies.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// pruneApps builds each evaluation application at the correctness-testing
// size. Programs are rebuilt per run (region identities are per-instance).
var pruneApps = []struct {
	name  string
	build func(nodes int) *ir.Program
}{
	{"stencil", func(n int) *ir.Program { return stencil.Build(stencil.Small(n)).Prog }},
	{"miniaero", func(n int) *ir.Program { return miniaero.Build(miniaero.Small(n)).Prog }},
	{"pennant", func(n int) *ir.Program { return pennant.Build(pennant.Small(n)).Prog }},
	{"circuit", func(n int) *ir.Program { return circuit.Build(circuit.Small(n)).Prog }},
}

// execPlans executes compiled plans on the chosen backend in Real mode,
// with shard plans memoized (the default) or re-resolved every iteration
// (noTrace), returning the final stores and scalars and the machine counters.
func execPlans(t *testing.T, prog *ir.Program, plans map[*ir.Loop]*cr.Compiled, nodes int, backend string, noTrace bool) (*ir.SeqResult, realm.Stats) {
	t.Helper()
	var sim realm.Exec
	switch backend {
	case "des":
		cfg := realm.DefaultConfig(nodes)
		cfg.CoresPerNode = 4
		sim = realm.MustNewSim(cfg)
	case "native":
		m, err := native.NewMachine(realm.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		sim = m
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	eng := spmd.New(sim, prog, ir.ExecReal, plans)
	eng.NoTrace = noTrace
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return seqOf(res), sim.Stats()
}

// planModes names the noTrace axis of the equivalence matrices.
var planModes = []struct {
	name    string
	noTrace bool
}{{"memoized", false}, {"reresolved", true}}

// compileVariant compiles every loop of prog for the given lowering, with
// aggregation tables on or off, and attaches the certified prune when asked.
func compileVariant(t *testing.T, prog *ir.Program, shards int, sync cr.SyncMode, agg, prune bool) map[*ir.Loop]*cr.Compiled {
	t.Helper()
	plans, err := spmd.CompileAll(prog, cr.Options{NumShards: shards, Sync: sync, Agg: agg})
	if err != nil {
		t.Fatal(err)
	}
	if prune {
		for _, plan := range plans {
			info, rep, err := verify.PlanPrune(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("prune pass rejected the schedule: %v", rep.Findings)
			}
			plan.Prune = info
		}
	}
	return plans
}

// runPruned compiles, optionally prunes (with certification), and executes
// one freshly built program on the chosen backend.
func runPruned(t *testing.T, prog *ir.Program, nodes int, sync cr.SyncMode, backend string, prune, noTrace bool) (*ir.SeqResult, realm.Stats) {
	t.Helper()
	return execPlans(t, prog, compileVariant(t, prog, nodes, sync, false, prune), nodes, backend, noTrace)
}

// seqOf views an spmd result as the program result progtest.Diff compares.
func seqOf(r *spmd.Result) *ir.SeqResult { return &ir.SeqResult{Stores: r.Stores, Env: r.Env} }

// TestPruneEquivalence: certified pruning is invisible to the computed
// values — bitwise — for every app, both lowerings, both backends, with
// shard plans memoized and re-resolved every iteration.
func TestPruneEquivalence(t *testing.T) {
	const nodes = 2
	backends := []string{"des", "native"}
	if testing.Short() {
		backends = []string{"des"}
	}
	for _, app := range pruneApps {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, backend := range backends {
				for _, pm := range planModes {
					name := fmt.Sprintf("%s/%v/%s/%s", app.name, sync, backend, pm.name)
					t.Run(name, func(t *testing.T) {
						base, _ := runPruned(t, app.build(nodes), nodes, sync, backend, false, pm.noTrace)
						pruned, _ := runPruned(t, app.build(nodes), nodes, sync, backend, true, pm.noTrace)
						if err := progtest.Diff(base, pruned); err != nil {
							t.Error(err)
						}
					})
				}
			}
		}
	}
}

// TestPruneReducesMessages: the dead-initialization prune class eliminates
// real cross-node copies, so the DES message counter must strictly drop on
// PENNANT under p2p — the acceptance bar for -prune reducing measured
// communication, not just graph edges.
func TestPruneReducesMessages(t *testing.T) {
	const nodes = 4
	build := func() *ir.Program { return pennant.Build(pennant.Small(nodes)).Prog }
	_, baseStats := runPruned(t, build(), nodes, cr.PointToPoint, "des", false, false)
	_, prunedStats := runPruned(t, build(), nodes, cr.PointToPoint, "des", true, false)
	if prunedStats.Messages >= baseStats.Messages {
		t.Errorf("pruning did not reduce messages: %d -> %d", baseStats.Messages, prunedStats.Messages)
	}
	if prunedStats.BytesSent > baseStats.BytesSent {
		t.Errorf("pruning grew bytes sent: %d -> %d", baseStats.BytesSent, prunedStats.BytesSent)
	}
}
