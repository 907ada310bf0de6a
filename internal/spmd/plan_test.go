package spmd

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// runCRTrace runs the program under SPMD with tracing on or off and
// returns the result plus the trace counters.
func runCRTrace(t *testing.T, prog *ir.Program, nodes, shards int, sync cr.SyncMode, mode ir.ExecMode, noTrace bool) (*Result, TraceStats) {
	t.Helper()
	plans, err := CompileAll(prog, cr.Options{NumShards: shards, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, mode, plans)
	eng.NoTrace = noTrace
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.TraceStats()
}

// TestPlanReplayMatchesReResolved is the SPMD half of the tentpole
// guarantee: a memoized plan must engage (one plan per shard, every
// iteration executed from it) and leave the schedule — virtual time, DES
// stats, and Real-mode region contents — bitwise identical to the run that
// re-resolves its plan every iteration. Covers halo exchange (Figure2),
// region reduction with fold chains, and scalar reduction with
// future-valued scalars.
func TestPlanReplayMatchesReResolved(t *testing.T) {
	const shards, nodes = 4, 4
	for _, tc := range []struct {
		name  string
		build func() *ir.Program
		trip  int
	}{
		{"figure2", func() *ir.Program { return progtest.NewFigure2(48, 8, 6).Prog }, 6},
		{"regionReduce", func() *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }, 3},
		{"scalarSum", func() *ir.Program { return progtest.NewScalarSum(40, 8).Prog }, 2},
	} {
		for _, mode := range []ir.ExecMode{ir.ExecReal, ir.ExecModeled} {
			ref, offStats := runCRTrace(t, tc.build(), nodes, shards, cr.PointToPoint, mode, true)
			got, stats := runCRTrace(t, tc.build(), nodes, shards, cr.PointToPoint, mode, false)

			if offStats != (TraceStats{}) {
				t.Fatalf("%s: NoTrace engine built plans: %+v", tc.name, offStats)
			}
			if stats.Captures != 1 || stats.Specializations != shards || stats.PerShardCaptures != 0 {
				t.Errorf("%s mode %v: capture counters %+v, want one shared capture specialized to %d shards", tc.name, mode, stats, shards)
			}
			if want := shards * tc.trip; tc.trip > 0 && stats.ReplayedIters != want {
				t.Errorf("%s mode %v: replayed %d shard-iterations, want %d", tc.name, mode, stats.ReplayedIters, want)
			}
			if got.Elapsed != ref.Elapsed {
				t.Errorf("%s mode %v: Elapsed %d traced, %d untraced", tc.name, mode, got.Elapsed, ref.Elapsed)
			}
			if got.Stats != ref.Stats {
				t.Errorf("%s mode %v: Stats %+v traced, %+v untraced", tc.name, mode, got.Stats, ref.Stats)
			}
			if mode == ir.ExecReal {
				for k, v := range ref.Env {
					if got.Env[k] != v {
						t.Errorf("%s: scalar %q = %v traced, %v untraced", tc.name, k, got.Env[k], v)
					}
				}
			}
		}
	}

	// Real-mode store contents, checked against sequential semantics and the
	// untraced run on the same program objects.
	f := progtest.NewFigure2(48, 8, 6)
	seq := ir.ExecSequential(f.Prog)
	got, _ := runCRTrace(t, f.Prog, nodes, shards, cr.PointToPoint, ir.ExecReal, false)
	assertEqualStores(t, seq.Stores[f.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[f.B], got.Stores[f.B], f.B, f.Val)
}

// TestPlanFailoverInvalidates is the SPMD half of the PR 3 invalidation
// satellite: a crash recovered by shard failover rebuilds the run state,
// which must discard the captured plans (the placement changed), re-capture
// under the new placement, and still produce results bitwise identical to
// the untraced faulty run. Runs with cross-shard sharing disabled so the
// per-shard capture path is what failover re-exercises; the sharing path
// (shared capture survives the rebuild and is shipped to the restarted
// shard) is covered by share_test.go.
func TestPlanFailoverInvalidates(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}
	run := func(fp *realm.FaultPlan, noTrace bool) (*Result, TraceStats, *progtest.Figure2) {
		f := progtest.NewFigure2(48, 8, 8)
		plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(testConfig(nodes))
		if fp != nil {
			if err := sim.InjectFaults(*fp); err != nil {
				t.Fatal(err)
			}
		}
		eng := New(sim, f.Prog, ir.ExecReal, plans)
		eng.Recov = rec
		eng.NoTrace = noTrace
		eng.NoShare = true
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.TraceStats(), f
	}

	// Fault-free first, to time the crash mid-run and to pin the baseline:
	// plans persist across checkpointed epochs of one run state.
	res0, stats0, _ := run(nil, false)
	if stats0.PerShardCaptures != shards || stats0.Captures != 0 {
		t.Fatalf("fault-free NoShare recovery run captured %+v, want %d per-shard plans across all epochs and no shared capture", stats0, shards)
	}

	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
	ref, refStats, fRef := run(fp, true)
	got, stats, f := run(fp, false)

	if ref.Faults == nil || len(ref.Faults.Crashes) != 1 || ref.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want 1 crash and at least 1 restart", ref.Faults)
	}
	if refStats != (TraceStats{}) {
		t.Fatalf("NoTrace faulty run built plans: %+v", refStats)
	}
	// The failover rebuilt the run state, so every surviving shard
	// re-captured under the new placement, and the discarded plans were
	// counted as invalidations.
	if stats.PerShardCaptures <= shards {
		t.Errorf("failover did not invalidate plans: %d built, want > %d", stats.PerShardCaptures, shards)
	}
	if stats.Invalidations == 0 {
		t.Errorf("failover rebuild discarded no plans: %+v", stats)
	}
	// Shards count their executed iterations locally and fold them in when
	// their range ends — also when the failover kills them mid-epoch. The
	// abandoned epoch's 2 iterations x 4 shards were all issued before the
	// kill and are re-executed after it, so they count twice.
	if want := shards*8 + shards*rec.CheckpointEvery; stats.ReplayedIters != want {
		t.Errorf("ReplayedIters = %d, want %d (killed shards' completed iterations included)", stats.ReplayedIters, want)
	}
	if stats.Ships != 0 || stats.ShippedBytes != 0 {
		t.Errorf("NoShare run shipped traces: %+v", stats)
	}
	if got.Elapsed != ref.Elapsed || got.Stats != ref.Stats {
		t.Errorf("traced faulty run diverged: %v/%+v vs %v/%+v", got.Elapsed, got.Stats, ref.Elapsed, ref.Stats)
	}
	assertEqualStores(t, ref.Stores[fRef.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, ref.Stores[fRef.B], got.Stores[f.B], f.B, f.Val)

	// And the recovered contents still match sequential semantics.
	refSeq := progtest.NewFigure2(48, 8, 8)
	seq := ir.ExecSequential(refSeq.Prog)
	assertEqualStores(t, seq.Stores[refSeq.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[refSeq.B], got.Stores[f.B], f.B, f.Val)
}

// TestPlanReplayDeterministic: two traced runs are byte-identical.
func TestPlanReplayDeterministic(t *testing.T) {
	run := func() (realm.Time, realm.Stats) {
		f := progtest.NewFigure2(48, 8, 6)
		res, _ := runCRTrace(t, f.Prog, 4, 4, cr.PointToPoint, ir.ExecModeled, false)
		return res.Elapsed, res.Stats
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("traced SPMD run not deterministic: %v/%+v vs %v/%+v", e1, s1, e2, s2)
	}
}
