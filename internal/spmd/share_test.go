package spmd

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// runCRShare runs the program under SPMD with cross-shard sharing on or
// off (tracing always on) and returns the result plus the trace counters.
func runCRShare(t *testing.T, prog *ir.Program, nodes, shards int, mode ir.ExecMode, noShare bool) (*Result, TraceStats) {
	t.Helper()
	plans, err := CompileAll(prog, cr.Options{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, mode, plans)
	eng.NoShare = noShare
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.TraceStats()
}

// TestShareSingleCapture is the tentpole counter guarantee: with sharing
// on, plan capture is O(1) per run state — exactly one shared capture,
// specialized to every shard — for any shard count, and the schedule is
// bitwise identical to both the per-shard-capture run and the untraced
// run.
func TestShareSingleCapture(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		build := func() *ir.Program { return progtest.NewFigure2(48, 8, 6).Prog }
		for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
			shared, stats := runCRShare(t, build(), shards, shards, mode, false)
			perShard, offStats := runCRShare(t, build(), shards, shards, mode, true)
			untraced, _ := runCRTrace(t, build(), shards, shards, cr.PointToPoint, mode, true)

			if stats.Captures != 1 || stats.Specializations != shards || stats.PerShardCaptures != 0 {
				t.Errorf("shards=%d mode %v: counters %+v, want exactly 1 capture and %d specializations", shards, mode, stats, shards)
			}
			if offStats.PerShardCaptures != shards || offStats.Captures != 0 {
				t.Errorf("shards=%d mode %v: NoShare counters %+v, want %d per-shard captures", shards, mode, offStats, shards)
			}
			if stats.Ships != 0 || stats.ShippedBytes != 0 {
				t.Errorf("shards=%d mode %v: fault-free run shipped traces: %+v", shards, mode, stats)
			}
			for _, ref := range []*Result{perShard, untraced} {
				if shared.Elapsed != ref.Elapsed || shared.Stats != ref.Stats {
					t.Errorf("shards=%d mode %v: shared schedule diverged: %v/%+v vs %v/%+v",
						shards, mode, shared.Elapsed, shared.Stats, ref.Elapsed, ref.Stats)
				}
			}
		}

		// Real-mode store contents against sequential semantics.
		f := progtest.NewFigure2(48, 8, 6)
		seq := ir.ExecSequential(f.Prog)
		got, _ := runCRShare(t, f.Prog, shards, shards, ir.ExecReal, false)
		assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
		assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
	}
}

// captureWireSize is the modeled wire size of the shared capture of prog's
// one replicated loop, computed from the compiler's tables rather than by
// the engine: 8 bytes per cost-volume and pair-volume entry plus a 16-byte
// header per body op.
func captureWireSize(t *testing.T, prog *ir.Program, shards int) int64 {
	t.Helper()
	plans, err := CompileAll(prog, cr.Options{NumShards: shards})
	if err != nil || len(plans) != 1 {
		t.Fatalf("CompileAll: %d plans, err %v; want one loop", len(plans), err)
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
	const nodes = 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}
	for _, tc := range []struct {
		name   string
		n, nt  int64
		shards int
	}{
		{"equal", 48, 8, 4},
		{"ragged", 42, 7, 3},
	} {
		build := func() *ir.Program { return progtest.NewFigure2(tc.n, tc.nt, 8).Prog }
		run := func(fp *realm.FaultPlan) (*Result, TraceStats) {
			prog := build()
			plans, err := CompileAll(prog, cr.Options{NumShards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			sim := realm.MustNewSim(testConfig(nodes))
			if fp != nil {
				if err := sim.InjectFaults(*fp); err != nil {
					t.Fatal(err)
				}
			}
			eng := New(sim, prog, ir.ExecReal, plans)
			eng.Recov = rec
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res, eng.TraceStats()
		}

		res0, stats0 := run(nil)
		if stats0.Captures != 1 || stats0.PerShardCaptures != 0 {
			t.Fatalf("%s: fault-free counters %+v, want exactly one shared capture", tc.name, stats0)
		}
		if res0.Stats.TraceShips != 0 {
			t.Fatalf("%s: fault-free run shipped traces: %+v", tc.name, res0.Stats)
		}

		fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
		got, stats := run(fp)

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
		if want := int64(stats.Ships) * captureWireSize(t, build(), tc.shards); stats.ShippedBytes != want {
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
		if err := progtest.Diff(ir.ExecSequential(build()), &ir.SeqResult{Stores: got.Stores, Env: got.Env}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
