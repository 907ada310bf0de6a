package spmd

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
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
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(2))
	_, err = New(sim, f.Prog, ir.ExecReal, plans).Run()
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
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(2))
	_, err = New(sim, f.Prog, ir.ExecReal, plans).Run()
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
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(4))
	_, err = New(sim, f.Prog, ir.ExecReal, plans).Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected reduction kernel panic to surface as error, got %v", err)
	}
}

// runCRFaulty compiles and runs Figure2 under SPMD with a fault plan and
// recovery settings installed.
func runCRFaulty(t *testing.T, f *progtest.Figure2, nodes, shards int, fp *realm.FaultPlan, rec Recovery, tr *realm.Tracer) (*Result, error) {
	t.Helper()
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	if tr != nil {
		sim.SetTracer(tr)
	}
	if fp != nil {
		if err := sim.InjectFaults(*fp); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(sim, f.Prog, ir.ExecReal, plans)
	eng.Recov = rec
	return eng.Run()
}

// TestCrashRecoveryMatchesFaultFree is the acceptance test of the recovery
// layer: a run with an injected node crash, recovered through
// checkpoint/restart and shard failover, must produce region contents
// identical to the fault-free run (and to sequential semantics).
func TestCrashRecoveryMatchesFaultFree(t *testing.T) {
	build := func() *progtest.Figure2 { return progtest.NewFigure2(48, 8, 8) }
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}

	golden := build()
	res0, err := runCRFaulty(t, golden, 4, 4, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res0.Faults == nil || len(res0.Faults.Crashes) != 0 || res0.Faults.Restarts != 0 || res0.Faults.Checkpoints == 0 {
		t.Fatalf("fault-free run with recovery should checkpoint and nothing else, got %+v", res0.Faults)
	}

	f := build()
	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: res0.Elapsed / 2}}}
	res, err := runCRFaulty(t, f, 4, 4, fp, rec, nil)
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
	assertEqualStores(t, res0.Stores[golden.A], res.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, res0.Stores[golden.B], res.Stores[f.B], f.B, f.Val)

	ref := build()
	seq := ir.ExecSequential(ref.Prog)
	assertEqualStores(t, seq.Stores[ref.A], res.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[ref.B], res.Stores[f.B], f.B, f.Val)
}

// TestFaultSeedDeterminism: two runs under the same fault seed produce
// byte-identical stats, fault reports, and execution traces.
func TestFaultSeedDeterminism(t *testing.T) {
	fp := &realm.FaultPlan{
		Seed:            42,
		CrashRate:       3000, // expect a crash or two within the run
		DropRate:        0.1,
		DupRate:         0.05,
		StragglerRate:   0.2,
		StragglerFactor: 3,
	}
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 5, Backoff: realm.Microseconds(50)}
	run := func() (*Result, string) {
		f := progtest.NewFigure2(48, 8, 8)
		tr := realm.NewTracer()
		res, err := runCRFaulty(t, f, 4, 4, fp, rec, tr)
		if err != nil {
			t.Fatal(err)
		}
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
	for r, s1 := range r1.Stores {
		var s2 *region.Store
		for r2r, v := range r2.Stores {
			if r2r.Name() == r.Name() {
				s2 = v
			}
		}
		if s2 == nil || !s1.EqualOn(s2, 0, r.IndexSpace()) {
			t.Errorf("store %s differs between same-seed runs", r.Name())
		}
	}
}

// TestCrashDuringCheckpointCapture times a crash to land inside the
// checkpoint-capture window itself — after the epoch's shards have
// completed but before the capture copies to node 0's stable storage have
// drained. The half-taken checkpoint must be discarded (a nil from
// takeCheckpoint, one restart), the epoch re-runs, and the final stores
// stay bitwise correct.
func TestCrashDuringCheckpointCapture(t *testing.T) {
	build := func() *progtest.Figure2 { return progtest.NewFigure2(48, 8, 8) }
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}
	golden := build()
	res0, err := runCRFaulty(t, golden, 4, 4, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first checkpoint's capture copies start the instant iteration 2
	// (index 1) completes; one nanosecond later is inside the window, since
	// the copies pay at least the wire latency.
	at := res0.IterTimes[golden.Loop][1] + 1
	f := build()
	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: at}}}
	res, err := runCRFaulty(t, f, 4, 4, fp, rec, nil)
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
	assertEqualStores(t, res0.Stores[golden.A], res.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, res0.Stores[golden.B], res.Stores[f.B], f.B, f.Val)
}

// TestDoubleFailover lands a second crash inside the first crash's
// recovery window (after the backoff, during the watched restore/re-run),
// so the restart path itself fails over again. With a budget of two
// retries both are consumed back-to-back, both failovers complete, and the
// stores still come out bitwise correct.
func TestDoubleFailover(t *testing.T) {
	build := func() *progtest.Figure2 { return progtest.NewFigure2(48, 8, 8) }
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 4, Backoff: realm.Microseconds(50)}
	golden := build()
	res0, err := runCRFaulty(t, golden, 4, 4, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := res0.Elapsed / 2
	f := build()
	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{
		{Node: 2, At: mid},
		{Node: 3, At: mid + realm.Microseconds(60)}, // inside the first recovery (post-backoff)
	}}
	res, err := runCRFaulty(t, f, 4, 4, fp, rec, nil)
	if err != nil {
		t.Fatalf("double failover was not recovered: %v", err)
	}
	rep := res.Faults
	if rep == nil || len(rep.Crashes) != 2 || rep.Restarts < 2 || rep.Unrecovered {
		t.Fatalf("fault report = %+v, want 2 crashes, >= 2 restarts, recovered", rep)
	}
	assertEqualStores(t, res0.Stores[golden.A], res.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, res0.Stores[golden.B], res.Stores[f.B], f.B, f.Val)
}

// TestCrashDuringTraceShipping kills a shipment destination while the
// restarted placement's shared-capture shipments are still in flight: the
// mid-shipment failure must recurse into another restart (extra ships, no
// re-capture) and still recover to correct stores. The exact window is
// probed over a spread of virtual-time offsets — the DES is deterministic,
// so whichever offsets land mid-shipment do so on every run.
func TestCrashDuringTraceShipping(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 4, Backoff: realm.Microseconds(50)}
	build := func() *progtest.Figure2 { return progtest.NewFigure2(48, 8, 8) }

	golden := build()
	res0, err := runCRFaulty(t, golden, nodes, shards, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := res0.Elapsed / 2

	// Reference single-crash run: how many ships does one clean failover do?
	refF := build()
	refPlans, err := CompileAll(refF.Prog, cr.Options{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	refSim := realm.MustNewSim(testConfig(nodes))
	if err := refSim.InjectFaults(realm.FaultPlan{Crashes: []realm.NodeCrash{{Node: 2, At: mid}}}); err != nil {
		t.Fatal(err)
	}
	refEng := New(refSim, refF.Prog, ir.ExecReal, refPlans)
	refEng.Recov = rec
	if _, err := refEng.Run(); err != nil {
		t.Fatal(err)
	}
	baseShips := refEng.TraceStats().Ships
	if baseShips == 0 {
		t.Fatal("single failover shipped nothing; the probe has no baseline")
	}

	// Probe second-crash offsets across the recovery window until one lands
	// while shipments are in flight: the recursion then re-restarts, so the
	// run ships more than a single failover and restarts at least twice.
	found := false
	for off := realm.Time(55); off < 300 && !found; off += 5 {
		f := build()
		plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(testConfig(nodes))
		fp := realm.FaultPlan{Crashes: []realm.NodeCrash{
			{Node: 2, At: mid},
			{Node: 3, At: mid + realm.Microseconds(float64(off))},
		}}
		if err := sim.InjectFaults(fp); err != nil {
			t.Fatal(err)
		}
		eng := New(sim, f.Prog, ir.ExecReal, plans)
		eng.Recov = rec
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("offset %dus: %v", off, err)
		}
		rep := res.Faults
		if rep == nil || rep.Unrecovered {
			t.Fatalf("offset %dus: run degraded: %+v", off, rep)
		}
		stats := eng.TraceStats()
		if stats.Captures != 1 || stats.PerShardCaptures != 0 {
			t.Fatalf("offset %dus: failover re-captured: %+v", off, stats)
		}
		if len(rep.Crashes) == 2 && rep.Restarts >= 2 && stats.Ships > baseShips {
			found = true
			assertEqualStores(t, res0.Stores[golden.A], res.Stores[f.A], f.A, f.Val)
			assertEqualStores(t, res0.Stores[golden.B], res.Stores[f.B], f.B, f.Val)
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
	build := func() *progtest.Figure2 { return progtest.NewFigure2(48, 8, 8) }
	res0, err := runCRFaulty(t, build(), 4, 4, nil, Recovery{CheckpointEvery: 2, MaxRetries: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := res0.Elapsed / 2

	f := build()
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 2, Backoff: realm.Microseconds(5)}
	// The second and third crashes are timed to land inside the recovery
	// attempts that follow the first (after each backoff, during the watched
	// restore/re-run), so no epoch ever completes between failures and the
	// retry budget of 2 exhausts. Fault injection is deterministic, so this
	// timing holds on every run.
	fp := &realm.FaultPlan{Crashes: []realm.NodeCrash{
		{Node: 1, At: mid},
		{Node: 2, At: mid + realm.Microseconds(10)},
		{Node: 3, At: mid + realm.Microseconds(35)},
	}}
	res, err := runCRFaulty(t, f, 4, 4, fp, rec, nil)
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
		seq := ir.ExecSequential(ref.Prog)
		assertEqualStores(t, seq.Stores[ref.A], res.Stores[f.A], f.A, f.Val)
	}
	if len(res.IterTimes[f.Loop]) != rep.CompletedIters {
		t.Errorf("iter times has %d entries, want the %d completed iterations",
			len(res.IterTimes[f.Loop]), rep.CompletedIters)
	}
}
