// Dynamic validation of coalesced exchange plans: for every evaluation
// app, both lowerings, and both execution backends, a run with copy
// aggregation on must produce bitwise-identical final stores to the
// unaggregated run — coalescing merges transfers, it never changes a
// value or a fold order. On top of equivalence, aggregation must strictly
// reduce the DES message count on every app's exchange phase, and the two
// backends must agree exactly on the aggregation counters.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// TestAggEquivalence: coalescing is invisible to the computed values —
// bitwise — for every app, both lowerings, both backends, with shard plans
// memoized and re-resolved every iteration (the equivalence-matrix
// aggregation axis). At 2x overdecomposition the matrix has a composed
// column as well: the prune verify.PlanPrune licenses for the AGGREGATED
// plan, attached to it, must leave the stores bitwise equal to the
// sequential interpreter's.
func TestAggEquivalence(t *testing.T) {
	const nodes = 2
	backends := []string{bench.BackendDES, bench.BackendNative}
	if testing.Short() {
		backends = backends[:1]
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
						t.Run(fmt.Sprintf("%s/x%d/%v/%s/%s", app.name, over, sync, backend, pm.name), func(t *testing.T) {
							build := func() *ir.Program { return app.build(over * nodes) }
							cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Backend: backend, NoTrace: pm.noTrace}, Nodes: nodes, Sync: sync}
							base := must(t)(bench.RunCR(build(), cfg))
							cfg.Agg = true
							diff(t, base.SeqResult, must(t)(bench.RunCR(build(), cfg)))
							if over == 2 {
								cfg.Prune = true
								diff(t, ir.ExecSequential(build()), must(t)(bench.RunCR(build(), cfg)))
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
			cfg := bench.Config{Nodes: nodes}
			off := must(t)(bench.RunCR(app.build(2*nodes), cfg)).Stats
			cfg.Agg = true
			on := must(t)(bench.RunCR(app.build(2*nodes), cfg)).Stats
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
			if pin := aggMessagePins[app.name]; off.Messages != pin.off || on.Messages != pin.on {
				t.Errorf("message counts drifted from pins: off %d (want %d), on %d (want %d)",
					off.Messages, pin.off, on.Messages, pin.on)
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
			cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Agg: true}, Nodes: nodes}
			des := must(t)(bench.RunCR(app.build(2*nodes), cfg)).Stats
			cfg.Backend = bench.BackendNative
			nat := must(t)(bench.RunCR(app.build(2*nodes), cfg)).Stats
			if des.Messages != nat.Messages || des.BytesSent != nat.BytesSent ||
				des.AggGroups != nat.AggGroups || des.AggSavedMessages != nat.AggSavedMessages {
				t.Errorf("counters diverge: des %d messages, %d bytes, %d groups, %d saved; native %d, %d, %d, %d",
					des.Messages, des.BytesSent, des.AggGroups, des.AggSavedMessages,
					nat.Messages, nat.BytesSent, nat.AggGroups, nat.AggSavedMessages)
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
	cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Agg: true}, Nodes: nodes,
		Recov: spmd.Recovery{MaxRetries: 6, Backoff: realm.Microseconds(200)}}
	golden := must(t)(bench.RunCR(pennant.Build(pennant.Small(2*nodes)).Prog, cfg))
	cfg.Faults = &realm.FaultPlan{Seed: 4, CrashRate: 500}
	res := must(t)(bench.RunCR(pennant.Build(pennant.Small(2*nodes)).Prog, cfg))
	if res.Faults == nil || len(res.Faults.Crashes) == 0 {
		t.Skip("fault plan produced no crashes at this seed; nothing recovered")
	}
	if res.Faults.Unrecovered {
		t.Fatalf("aggregated run degraded: %+v", res.Faults)
	}
	if res.CRTrace.Captures != 1 || res.CRTrace.PerShardCaptures != 0 {
		t.Fatalf("aggregated failover re-captured: %+v", res.CRTrace)
	}
	diff(t, golden.SeqResult, res)
}
