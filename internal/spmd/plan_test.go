package spmd_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// TestPlanReplayMatchesReResolved is the SPMD half of the tentpole
// guarantee: a memoized plan must engage (one plan per shard, every
// iteration executed from it) and leave the schedule — virtual time, DES
// stats, and Real-mode region contents and scalars — bitwise identical to
// the run that re-resolves its plan every iteration, and to sequential
// semantics. Covers halo exchange (Figure2), region reduction with fold
// chains, and scalar reduction with future-valued scalars.
func TestPlanReplayMatchesReResolved(t *testing.T) {
	const shards = 4
	for _, tc := range []struct {
		name  string
		build func() *ir.Program
		trip  int
	}{
		{"figure2", figure2(48, 8, 6), 6},
		{"regionReduce", func() *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }, 3},
		{"scalarSum", func() *ir.Program { return progtest.NewScalarSum(40, 8).Prog }, 2},
	} {
		for _, mode := range []ir.ExecMode{ir.ExecReal, ir.ExecModeled} {
			cfg := bench.Config{Nodes: shards, Mode: mode}
			got := must(t)(bench.RunCR(tc.build(), cfg))
			cfg.NoTrace = true
			ref := must(t)(bench.RunCR(tc.build(), cfg))

			if ref.CRTrace != (spmd.TraceStats{}) {
				t.Fatalf("%s: NoTrace engine built plans: %+v", tc.name, ref.CRTrace)
			}
			if st := got.CRTrace; st.Captures != 1 || st.Specializations != shards || st.PerShardCaptures != 0 {
				t.Errorf("%s mode %v: capture counters %+v, want one shared capture specialized to %d shards", tc.name, mode, st, shards)
			}
			if want := shards * tc.trip; got.CRTrace.ReplayedIters != want {
				t.Errorf("%s mode %v: replayed %d shard-iterations, want %d", tc.name, mode, got.CRTrace.ReplayedIters, want)
			}
			if got.Elapsed != ref.Elapsed {
				t.Errorf("%s mode %v: Elapsed %d traced, %d untraced", tc.name, mode, got.Elapsed, ref.Elapsed)
			}
			if got.Stats != ref.Stats {
				t.Errorf("%s mode %v: Stats %+v traced, %+v untraced", tc.name, mode, got.Stats, ref.Stats)
			}
			if mode == ir.ExecReal {
				diff(t, ref.SeqResult, got)
				diff(t, ir.ExecSequential(tc.build()), got)
			}
		}
	}
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
	const shards = 4
	build := figure2(48, 8, 8)
	cfg := recovered(3)
	cfg.NoShare = true

	// Fault-free first, to time the crash mid-run and to pin the baseline:
	// plans persist across checkpointed epochs of one run state.
	res0 := must(t)(bench.RunCR(build(), cfg))
	if st := res0.CRTrace; st.PerShardCaptures != shards || st.Captures != 0 {
		t.Fatalf("fault-free NoShare recovery run captured %+v, want %d per-shard plans across all epochs and no shared capture", st, shards)
	}

	cfg = crashes(cfg, realm.NodeCrash{Node: 2, At: res0.Elapsed / 2})
	got := must(t)(bench.RunCR(build(), cfg))
	cfg.NoTrace = true
	ref := must(t)(bench.RunCR(build(), cfg))

	if ref.Faults == nil || len(ref.Faults.Crashes) != 1 || ref.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want 1 crash and at least 1 restart", ref.Faults)
	}
	if ref.CRTrace != (spmd.TraceStats{}) {
		t.Fatalf("NoTrace faulty run built plans: %+v", ref.CRTrace)
	}
	stats := got.CRTrace
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
	if want := shards*8 + shards*cfg.Recov.CheckpointEvery; stats.ReplayedIters != want {
		t.Errorf("ReplayedIters = %d, want %d (killed shards' completed iterations included)", stats.ReplayedIters, want)
	}
	if stats.Ships != 0 || stats.ShippedBytes != 0 {
		t.Errorf("NoShare run shipped traces: %+v", stats)
	}
	if got.Elapsed != ref.Elapsed || got.Stats != ref.Stats {
		t.Errorf("traced faulty run diverged: %v/%+v vs %v/%+v", got.Elapsed, got.Stats, ref.Elapsed, ref.Stats)
	}
	diff(t, ref.SeqResult, got)
	// And the recovered contents still match sequential semantics.
	diff(t, ir.ExecSequential(build()), got)
}

// TestPlanReplayDeterministic: two traced runs are byte-identical.
func TestPlanReplayDeterministic(t *testing.T) {
	run := func() *bench.Result {
		return must(t)(bench.RunCR(figure2(48, 8, 6)(), bench.Config{Nodes: 4, Mode: ir.ExecModeled}))
	}
	if a, b := run(), run(); a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("traced SPMD run not deterministic: %v/%+v vs %v/%+v", a.Elapsed, a.Stats, b.Elapsed, b.Stats)
	}
}
