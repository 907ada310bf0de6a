package spmd_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// TestKernelPanicSurfacesAsError: a faulty task kernel (out-of-privilege
// access, bad index, application bug) must surface as an error from Run,
// not crash the process.
func TestKernelPanicSurfacesAsError(t *testing.T) {
	f := progtest.NewFigure2(24, 4, 1)
	// Sabotage TF's kernel to violate its privileges.
	tf := f.Loop.Body[0].(*ir.Launch)
	tf.Task.Kernel = func(tc *ir.TaskCtx) {
		// Write through the read-only argument: strict privileges panic.
		tc.Args[1].Set(f.Val, tc.Args[1].Region.IndexSpace().Bounds().Lo, 1)
	}
	_, err := bench.RunCR(f.Prog, bench.Config{Nodes: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected kernel panic to surface as error, got %v", err)
	}
}

// TestMidLoopKernelPanicSurfacesAsError: a kernel that only blows up part
// way through the replicated loop (a data-dependent bug) still comes back
// as an error with the earlier iterations' work already issued.
func TestMidLoopKernelPanicSurfacesAsError(t *testing.T) {
	f := progtest.NewFigure2(24, 4, 4)
	tf := f.Loop.Body[0].(*ir.Launch)
	good := tf.Task.Kernel
	calls := 0
	tf.Task.Kernel = func(tc *ir.TaskCtx) {
		calls++
		if calls > 6 { // 4 colors per iteration: fail during iteration 1
			panic("mid-loop kernel bug")
		}
		good(tc)
	}
	_, err := bench.RunCR(f.Prog, bench.Config{Nodes: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected mid-loop kernel panic to surface as error, got %v", err)
	}
	if calls <= 6 {
		t.Fatalf("kernel ran %d times; the panic never fired", calls)
	}
}

// TestReductionKernelPanicSurfacesAsError: a panic in a kernel feeding
// region-reduction folds (temporaries, reduction copies, fold chains in
// flight) must also surface as an error, not wedge or crash the process.
func TestReductionKernelPanicSurfacesAsError(t *testing.T) {
	f := progtest.NewRegionReduce(32, 4, 3)
	contrib := f.Loop.Body[0].(*ir.Launch)
	good := contrib.Task.Kernel
	calls := 0
	contrib.Task.Kernel = func(tc *ir.TaskCtx) {
		calls++
		if calls > 5 { // fail during the second iteration's folds
			panic("reduction kernel bug")
		}
		good(tc)
	}
	_, err := bench.RunCR(f.Prog, bench.Config{Nodes: 4})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected reduction kernel panic to surface as error, got %v", err)
	}
}

// recovered is the fault-tolerance tests' run: Figure 2 on 4 nodes with a
// checkpoint every 2 iterations and the given restart budget.
func recovered(retries int) bench.Config {
	return bench.Config{Nodes: 4,
		Recov: spmd.Recovery{CheckpointEvery: 2, MaxRetries: retries, Backoff: realm.Microseconds(50)}}
}

// crashes returns cfg with the crashes injected.
func crashes(cfg bench.Config, cs ...realm.NodeCrash) bench.Config {
	cfg.Faults = &realm.FaultPlan{Crashes: cs}
	return cfg
}

// TestCrashRecoveryMatchesFaultFree is the acceptance test of the recovery
// layer: a run with an injected node crash, recovered through
// checkpoint/restart and shard failover, must produce region contents
// identical to the fault-free run (and to sequential semantics).
func TestCrashRecoveryMatchesFaultFree(t *testing.T) {
	build := figure2(48, 8, 8)
	res0 := must(t)(bench.RunCR(build(), recovered(3)))
	if res0.Faults == nil || len(res0.Faults.Crashes) != 0 || res0.Faults.Restarts != 0 || res0.Faults.Checkpoints == 0 {
		t.Fatalf("fault-free run with recovery should checkpoint and nothing else, got %+v", res0.Faults)
	}
	res, err := bench.RunCR(build(), crashes(recovered(3), realm.NodeCrash{Node: 2, At: res0.Elapsed / 2}))
	if err != nil {
		t.Fatalf("crash was not recovered: %v", err)
	}
	if res.Faults == nil || len(res.Faults.Crashes) != 1 || res.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want 1 crash and at least 1 restart", res.Faults)
	}
	if res.Faults.Unrecovered {
		t.Fatalf("run degraded unexpectedly: %+v", res.Faults)
	}
	if res.Elapsed <= res0.Elapsed {
		t.Errorf("recovered run (%v) should cost more virtual time than fault-free (%v)", res.Elapsed, res0.Elapsed)
	}
	diff(t, res0.SeqResult, res)
	diff(t, ir.ExecSequential(build()), res)
}

// TestFaultSeedDeterminism: two runs under the same fault seed produce
// byte-identical stats, fault reports, stores and execution traces.
func TestFaultSeedDeterminism(t *testing.T) {
	cfg := recovered(5)
	cfg.Faults = &realm.FaultPlan{
		Seed:            42,
		CrashRate:       3000, // expect a crash or two within the run
		DropRate:        0.1,
		DupRate:         0.05,
		StragglerRate:   0.2,
		StragglerFactor: 3,
	}
	run := func() (*bench.Result, string) {
		mc := realm.DefaultConfig(4)
		mc.CoresPerNode = 4
		sim := realm.MustNewSim(mc)
		tr := realm.NewTracer()
		sim.SetTracer(tr)
		cfg.Exec = sim
		res := must(t)(bench.RunCR(figure2(48, 8, 8)(), cfg))
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1.Elapsed != r2.Elapsed || r1.Stats != r2.Stats {
		t.Errorf("same fault seed diverged: %v/%+v vs %v/%+v", r1.Elapsed, r1.Stats, r2.Elapsed, r2.Stats)
	}
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Errorf("fault reports diverged:\n%+v\n%+v", r1.Faults, r2.Faults)
	}
	if t1 != t2 {
		t.Error("execution traces are not byte-identical under one fault seed")
	}
	diff(t, r1.SeqResult, r2)
}

// TestCrashDuringCheckpointCapture times a crash to land inside the
// checkpoint-capture window itself — after the epoch's shards have
// completed but before the capture copies to node 0's stable storage have
// drained. The half-taken checkpoint must be discarded (a nil from
// takeCheckpoint, one restart), the epoch re-runs, and the final stores
// stay bitwise correct.
func TestCrashDuringCheckpointCapture(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 8)
	res0 := must(t)(bench.RunCR(f.Prog, recovered(3)))
	// The first checkpoint's capture copies start the instant iteration 2
	// (index 1) completes; one nanosecond later is inside the window, since
	// the copies pay at least the wire latency.
	at := res0.IterTimes[f.Loop][1] + 1
	res, err := bench.RunCR(figure2(48, 8, 8)(), crashes(recovered(3), realm.NodeCrash{Node: 2, At: at}))
	if err != nil {
		t.Fatalf("crash during checkpoint capture was not recovered: %v", err)
	}
	rep := res.Faults
	if rep == nil || len(rep.Crashes) != 1 || rep.Restarts < 1 || rep.Unrecovered {
		t.Fatalf("fault report = %+v, want 1 crash, >= 1 restart, recovered", rep)
	}
	// The interrupted attempt still counts, so the faulty run takes more
	// checkpoint attempts than the fault-free one.
	if rep.Checkpoints <= res0.Faults.Checkpoints {
		t.Errorf("checkpoints = %d, want more than the fault-free %d (the interrupted capture counts)",
			rep.Checkpoints, res0.Faults.Checkpoints)
	}
	diff(t, res0.SeqResult, res)
}

// TestDoubleFailover lands a second crash inside the first crash's
// recovery window (after the backoff, during the watched restore/re-run),
// so the restart path itself fails over again. With a budget of two
// retries both are consumed back-to-back, both failovers complete, and the
// stores still come out bitwise correct.
func TestDoubleFailover(t *testing.T) {
	build := figure2(48, 8, 8)
	res0 := must(t)(bench.RunCR(build(), recovered(4)))
	mid := res0.Elapsed / 2
	res, err := bench.RunCR(build(), crashes(recovered(4),
		realm.NodeCrash{Node: 2, At: mid},
		realm.NodeCrash{Node: 3, At: mid + realm.Microseconds(60)}, // inside the first recovery (post-backoff)
	))
	if err != nil {
		t.Fatalf("double failover was not recovered: %v", err)
	}
	rep := res.Faults
	if rep == nil || len(rep.Crashes) != 2 || rep.Restarts < 2 || rep.Unrecovered {
		t.Fatalf("fault report = %+v, want 2 crashes, >= 2 restarts, recovered", rep)
	}
	diff(t, res0.SeqResult, res)
}

// TestCrashDuringTraceShipping kills a shipment destination while the
// restarted placement's shared-capture shipments are still in flight: the
// mid-shipment failure must recurse into another restart (extra ships, no
// re-capture) and still recover to correct stores. The exact window is
// probed over a spread of virtual-time offsets — the DES is deterministic,
// so whichever offsets land mid-shipment do so on every run.
func TestCrashDuringTraceShipping(t *testing.T) {
	build := figure2(48, 8, 8)
	res0 := must(t)(bench.RunCR(build(), recovered(4)))
	mid := res0.Elapsed / 2

	// Reference single-crash run: how many ships does one clean failover do?
	baseShips := must(t)(bench.RunCR(build(), crashes(recovered(4), realm.NodeCrash{Node: 2, At: mid}))).CRTrace.Ships
	if baseShips == 0 {
		t.Fatal("single failover shipped nothing; the probe has no baseline")
	}

	// Probe second-crash offsets across the recovery window until one lands
	// while shipments are in flight: the recursion then re-restarts, so the
	// run ships more than a single failover and restarts at least twice.
	found := false
	for off := realm.Time(55); off < 300 && !found; off += 5 {
		res := must(t)(bench.RunCR(build(), crashes(recovered(4),
			realm.NodeCrash{Node: 2, At: mid},
			realm.NodeCrash{Node: 3, At: mid + realm.Microseconds(float64(off))},
		)))
		rep, stats := res.Faults, res.CRTrace
		if rep == nil || rep.Unrecovered {
			t.Fatalf("offset %dus: run degraded: %+v", off, rep)
		}
		if stats.Captures != 1 || stats.PerShardCaptures != 0 {
			t.Fatalf("offset %dus: failover re-captured: %+v", off, stats)
		}
		if len(rep.Crashes) == 2 && rep.Restarts >= 2 && stats.Ships > baseShips {
			found = true
			diff(t, res0.SeqResult, res)
		}
	}
	if !found {
		t.Fatalf("no probed offset interrupted trace shipping (baseline ships = %d); widen the probe window", baseShips)
	}
}

// TestUnrecoverableDegradesToPartialResults: when crashes outpace the
// retry budget, Run returns the last checkpoint's partial results plus a
// structured report — not an error, and not a hang.
func TestUnrecoverableDegradesToPartialResults(t *testing.T) {
	mid := must(t)(bench.RunCR(figure2(48, 8, 8)(), recovered(3))).Elapsed / 2

	f := progtest.NewFigure2(48, 8, 8)
	cfg := recovered(2)
	cfg.Recov.Backoff = realm.Microseconds(5)
	// The second and third crashes are timed to land inside the recovery
	// attempts that follow the first (after each backoff, during the watched
	// restore/re-run), so no epoch ever completes between failures and the
	// retry budget of 2 exhausts. Fault injection is deterministic, so this
	// timing holds on every run.
	res, err := bench.RunCR(f.Prog, crashes(cfg,
		realm.NodeCrash{Node: 1, At: mid},
		realm.NodeCrash{Node: 2, At: mid + realm.Microseconds(10)},
		realm.NodeCrash{Node: 3, At: mid + realm.Microseconds(35)},
	))
	if err != nil {
		t.Fatalf("degraded run should not error: %v", err)
	}
	rep := res.Faults
	if rep == nil || !rep.Unrecovered {
		t.Fatalf("fault report = %+v, want Unrecovered", rep)
	}
	if rep.Reason == "" || rep.TotalIters != 8 || rep.CompletedIters >= 8 {
		t.Errorf("report fields wrong: %+v", rep)
	}
	if rep.CompletedIters > 0 {
		// Partial results: region A holds the checkpoint's contents, which
		// must equal the sequential execution truncated to that iteration.
		ref := progtest.NewFigure2(48, 8, rep.CompletedIters)
		if !res.Stores[f.A].EqualOn(ir.ExecSequential(ref.Prog).Stores[ref.A], f.Val, f.A.IndexSpace()) {
			t.Errorf("region A differs from the sequential run of the %d completed iterations", rep.CompletedIters)
		}
	}
	if len(res.IterTimes[f.Loop]) != rep.CompletedIters {
		t.Errorf("iter times has %d entries, want the %d completed iterations",
			len(res.IterTimes[f.Loop]), rep.CompletedIters)
	}
}
