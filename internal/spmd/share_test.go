package spmd_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// TestShareSingleCapture is the tentpole counter guarantee: with sharing
// on, plan capture is O(1) per run state — exactly one shared capture,
// specialized to every shard — for any shard count, and the schedule is
// bitwise identical to both the per-shard-capture run and the untraced
// run.
func TestShareSingleCapture(t *testing.T) {
	build := figure2(48, 8, 6)
	for _, shards := range []int{2, 4, 8} {
		for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
			cfg := bench.Config{Nodes: shards, Mode: mode}
			shared := must(t)(bench.RunCR(build(), cfg))
			cfg.NoShare = true
			perShard := must(t)(bench.RunCR(build(), cfg))
			cfg.NoShare, cfg.NoTrace = false, true
			untraced := must(t)(bench.RunCR(build(), cfg))

			if st := shared.CRTrace; st.Captures != 1 || st.Specializations != shards || st.PerShardCaptures != 0 {
				t.Errorf("shards=%d mode %v: counters %+v, want exactly 1 capture and %d specializations", shards, mode, st, shards)
			}
			if st := perShard.CRTrace; st.PerShardCaptures != shards || st.Captures != 0 {
				t.Errorf("shards=%d mode %v: NoShare counters %+v, want %d per-shard captures", shards, mode, st, shards)
			}
			if st := shared.CRTrace; st.Ships != 0 || st.ShippedBytes != 0 {
				t.Errorf("shards=%d mode %v: fault-free run shipped traces: %+v", shards, mode, st)
			}
			for _, ref := range []*bench.Result{perShard, untraced} {
				if shared.Elapsed != ref.Elapsed || shared.Stats != ref.Stats {
					t.Errorf("shards=%d mode %v: shared schedule diverged: %v/%+v vs %v/%+v",
						shards, mode, shared.Elapsed, shared.Stats, ref.Elapsed, ref.Stats)
				}
			}
			if mode == ir.ExecReal {
				diff(t, ir.ExecSequential(build()), shared)
			}
		}
	}
}

// captureWireSize is the modeled wire size of the shared capture of the
// one replicated loop of plans, computed from the compiler's tables rather
// than by the engine: 8 bytes per cost-volume and pair-volume entry plus a
// 16-byte header per body op.
func captureWireSize(t *testing.T, plans map[*ir.Loop]*cr.Compiled) int64 {
	t.Helper()
	if len(plans) != 1 {
		t.Fatalf("%d plans, want one loop", len(plans))
	}
	var n int64
	for _, plan := range plans {
		for i, op := range plan.Body {
			n += 16
			switch {
			case op.Launch != nil:
				n += 8 * int64(len(plan.Spec.Ops[i].Launch.CostVol))
			case op.Copy != nil:
				n += 8 * int64(len(plan.Spec.Ops[i].Copy.PairVols))
			}
		}
	}
	return n
}

// TestShareFailoverShipsTrace: a crash recovered by shard failover must
// not re-capture when sharing is on — the shared capture survives the run
// state rebuild, the restarted shards receive it as a real DES message
// (with latency and bandwidth cost), and every shard re-specializes. The
// recovered results stay bitwise equal to sequential semantics. The ragged
// row (7 colors over 3 shards) shares and ships like the equal-block one.
func TestShareFailoverShipsTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, nt  int64
		shards int
	}{
		{"equal", 48, 8, 4},
		{"ragged", 42, 7, 3},
	} {
		build := figure2(tc.n, tc.nt, 8)
		cfg := bench.Config{Nodes: 4, Shards: tc.shards,
			Recov: spmd.Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}}
		res0 := must(t)(bench.RunCR(build(), cfg))
		if st := res0.CRTrace; st.Captures != 1 || st.PerShardCaptures != 0 {
			t.Fatalf("%s: fault-free counters %+v, want exactly one shared capture", tc.name, st)
		}
		if res0.Stats.TraceShips != 0 {
			t.Fatalf("%s: fault-free run shipped traces: %+v", tc.name, res0.Stats)
		}

		cfg.Faults = &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
		got := must(t)(bench.RunCR(build(), cfg))
		stats := got.CRTrace

		if got.Faults == nil || len(got.Faults.Crashes) != 1 || got.Faults.Restarts < 1 {
			t.Fatalf("%s: fault report = %+v, want 1 crash and at least 1 restart", tc.name, got.Faults)
		}
		// Zero re-capture across the whole faulty run: the shared capture is
		// keyed on the engine, not the run state, so failover re-specializes.
		if stats.Captures != 1 || stats.PerShardCaptures != 0 {
			t.Errorf("%s: failover re-captured: %+v, want the single pre-crash capture only", tc.name, stats)
		}
		if stats.Specializations <= tc.shards {
			t.Errorf("%s: failover specialized %d plans, want > %d (rebuild re-specializes every shard)", tc.name, stats.Specializations, tc.shards)
		}
		if stats.Invalidations == 0 {
			t.Errorf("%s: failover rebuild discarded no plans: %+v", tc.name, stats)
		}
		if stats.Ships == 0 {
			t.Errorf("%s: failover shipped nothing: %+v", tc.name, stats)
		}
		if want := int64(stats.Ships) * captureWireSize(t, got.Plans); stats.ShippedBytes != want {
			t.Errorf("%s: ShippedBytes = %d, want %d (%d ships of the tables' wire size)", tc.name, stats.ShippedBytes, want, stats.Ships)
		}
		if got.Stats.TraceShips != int64(stats.Ships) || got.Stats.TraceShipBytes != stats.ShippedBytes {
			t.Errorf("%s: DES ship stats %d/%d don't match engine counters %+v", tc.name, got.Stats.TraceShips, got.Stats.TraceShipBytes, stats)
		}
		// Shipping is a real message: it costs virtual time over the fault-free
		// run (on top of the restart itself).
		if got.Elapsed <= res0.Elapsed {
			t.Errorf("%s: faulty run Elapsed %v <= fault-free %v; recovery and shipping should cost time", tc.name, got.Elapsed, res0.Elapsed)
		}
		// Recovered results match sequential semantics bitwise.
		diff(t, ir.ExecSequential(build()), got)
	}
}
