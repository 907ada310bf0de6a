// Dynamic validation of coalesced exchange plans: for every evaluation
// app, both lowerings, and both execution backends, a run with copy
// aggregation on must produce bitwise-identical final stores to the
// unaggregated run — coalescing merges transfers, it never changes a
// value or a fold order. On top of equivalence, aggregation must strictly
// reduce the DES message count on every app's exchange phase, and the two
// backends must agree exactly on the aggregation counters.
//
// Lives in an external test package so it can import the app builders
// without adding them to spmd's own dependencies.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// runAgg compiles with aggregation on or off and executes one freshly
// built program on the chosen backend.
func runAgg(t *testing.T, prog *ir.Program, nodes int, sync cr.SyncMode, backend string, agg, noTrace bool) (*ir.SeqResult, realm.Stats) {
	t.Helper()
	return execPlans(t, prog, compileVariant(t, prog, nodes, sync, agg, false), nodes, backend, noTrace)
}

// TestAggEquivalence: coalescing is invisible to the computed values —
// bitwise — for every app, both lowerings, both backends, with shard plans
// memoized and re-resolved every iteration (the equivalence-matrix
// aggregation axis). At 2x overdecomposition the matrix has a composed
// column as well: the prune verify.PlanPrune licenses for the AGGREGATED
// plan, attached to it, must leave the stores bitwise equal to the
// sequential interpreter's.
func TestAggEquivalence(t *testing.T) {
	const nodes = 2
	backends := []string{"des", "native"}
	if testing.Short() {
		backends = []string{"des"}
	}
	// over = pieces per shard: 1 is the standard one-piece-per-shard
	// configuration; 2 overdecomposes so every shard produces several pairs
	// toward each neighbor and the phase groups have multiple remote
	// members (the interesting coalescing case).
	for _, app := range pruneApps {
		for _, over := range []int{1, 2} {
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				for _, backend := range backends {
					for _, pm := range planModes {
						name := fmt.Sprintf("%s/x%d/%v/%s/%s", app.name, over, sync, backend, pm.name)
						t.Run(name, func(t *testing.T) {
							base, _ := runAgg(t, app.build(over*nodes), nodes, sync, backend, false, pm.noTrace)
							agged, _ := runAgg(t, app.build(over*nodes), nodes, sync, backend, true, pm.noTrace)
							if err := progtest.Diff(base, agged); err != nil {
								t.Error(err)
							}
							if over < 2 {
								return
							}
							prog := app.build(over * nodes)
							composed, _ := execPlans(t, prog, compileVariant(t, prog, nodes, sync, true, true), nodes, backend, pm.noTrace)
							if err := progtest.Diff(ir.ExecSequential(app.build(over*nodes)), composed); err != nil {
								t.Error(err)
							}
						})
					}
				}
			}
		}
	}
}

// aggMessagePins holds the regression-pinned DES message counts at 4 nodes
// with 8 pieces (two per shard — each shard then produces several pairs
// toward each neighbor within an exchange phase, so coalescing has remote
// multi-member groups to merge on every app) under p2p: aggregation must
// land exactly these, and strictly below the unaggregated count.
// Deliberately exact (like TestPruneReducesMessages's strict inequality,
// but pinned) so an accidental change to the grouping key or the group
// tables shows up as a diff, not a silent drift.
var aggMessagePins = map[string]struct{ off, on int64 }{
	"stencil":  {78, 60},
	"miniaero": {170, 106},
	"pennant":  {96, 60},
	"circuit":  {186, 105},
}

// TestAggReducesMessages: with -agg on, the DES message count strictly
// drops on every app's exchange phase, pinned per app against silent
// regression of the grouping.
func TestAggReducesMessages(t *testing.T) {
	const nodes = 4
	for _, app := range pruneApps {
		t.Run(app.name, func(t *testing.T) {
			_, off := runAgg(t, app.build(2*nodes), nodes, cr.PointToPoint, "des", false, false)
			_, on := runAgg(t, app.build(2*nodes), nodes, cr.PointToPoint, "des", true, false)
			if on.Messages >= off.Messages {
				t.Errorf("aggregation did not reduce messages: %d -> %d", off.Messages, on.Messages)
			}
			if on.BytesSent != off.BytesSent {
				t.Errorf("aggregation changed bytes sent: %d -> %d (coalescing merges messages, not payloads)", off.BytesSent, on.BytesSent)
			}
			if on.AggGroups == 0 || on.AggSavedMessages == 0 {
				t.Errorf("aggregation counters empty with -agg on: groups=%d saved=%d", on.AggGroups, on.AggSavedMessages)
			}
			if off.AggGroups != 0 || off.AggSavedMessages != 0 {
				t.Errorf("aggregation counters nonzero with -agg off: groups=%d saved=%d", off.AggGroups, off.AggSavedMessages)
			}
			if off.Messages-on.Messages != on.AggSavedMessages {
				t.Errorf("message drop %d does not match AggSavedMessages %d", off.Messages-on.Messages, on.AggSavedMessages)
			}
			if pin, ok := aggMessagePins[app.name]; ok {
				if off.Messages != pin.off || on.Messages != pin.on {
					t.Errorf("message counts drifted from pins: off %d (want %d), on %d (want %d)",
						off.Messages, pin.off, on.Messages, pin.on)
				}
			}
		})
	}
}

// TestAggCountersCrossBackend: with -agg on, the DES and the native
// backend report identical Messages, BytesSent, AggGroups, and
// AggSavedMessages for every app — the counters are defined at issue
// time over the same group tables, so any divergence is a backend bug.
func TestAggCountersCrossBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("native backend runs are not short")
	}
	const nodes = 2
	for _, app := range pruneApps {
		t.Run(app.name, func(t *testing.T) {
			_, des := runAgg(t, app.build(2*nodes), nodes, cr.PointToPoint, "des", true, false)
			_, nat := runAgg(t, app.build(2*nodes), nodes, cr.PointToPoint, "native", true, false)
			if des.Messages != nat.Messages {
				t.Errorf("Messages diverge: des %d, native %d", des.Messages, nat.Messages)
			}
			if des.BytesSent != nat.BytesSent {
				t.Errorf("BytesSent diverge: des %d, native %d", des.BytesSent, nat.BytesSent)
			}
			if des.AggGroups != nat.AggGroups {
				t.Errorf("AggGroups diverge: des %d, native %d", des.AggGroups, nat.AggGroups)
			}
			if des.AggSavedMessages != nat.AggSavedMessages {
				t.Errorf("AggSavedMessages diverge: des %d, native %d", des.AggSavedMessages, nat.AggSavedMessages)
			}
		})
	}
}

// TestAggFailoverRecovers: coalescing composes with fault tolerance — a
// run with aggregation on and injected node crashes must recover through
// checkpoint/restart to stores bitwise-identical to the fault-free
// aggregated run, with ZERO re-capture: the shared trace capture (which
// records the merged per-group issue plan) survives failover and is
// re-specialized, never re-executed.
func TestAggFailoverRecovers(t *testing.T) {
	const nodes = 4
	run := func(fp *realm.FaultPlan) (*spmd.Result, spmd.TraceStats, *ir.Program) {
		prog := pennant.Build(pennant.Small(2 * nodes)).Prog
		plans, err := spmd.CompileAll(prog, cr.Options{NumShards: nodes, Sync: cr.PointToPoint, Agg: true})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(realm.DefaultConfig(nodes))
		if fp != nil {
			if err := sim.InjectFaults(*fp); err != nil {
				t.Fatal(err)
			}
		}
		eng := spmd.New(sim, prog, ir.ExecReal, plans)
		eng.Recov = spmd.Recovery{MaxRetries: 6, Backoff: realm.Microseconds(200)}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.TraceStats(), prog
	}
	golden, _, _ := run(nil)
	res, stats, _ := run(&realm.FaultPlan{Seed: 4, CrashRate: 500})
	if res.Faults == nil || len(res.Faults.Crashes) == 0 {
		t.Skip("fault plan produced no crashes at this seed; nothing recovered")
	}
	if res.Faults.Unrecovered {
		t.Fatalf("aggregated run degraded: %+v", res.Faults)
	}
	if stats.Captures != 1 || stats.PerShardCaptures != 0 {
		t.Fatalf("aggregated failover re-captured: %+v", stats)
	}
	if err := progtest.Diff(seqOf(golden), seqOf(res)); err != nil {
		t.Error(err)
	}
}
