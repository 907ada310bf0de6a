package spmd_test

import (
	"reflect"
	"strings"
	"sync"
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

// crashes returns cfg with the launch-indexed crashes ls and the
// copy-indexed crashes cs injected.
func crashes(cfg bench.Config, ls []realm.LaunchCrash, cs ...realm.CopyCrash) bench.Config {
	cfg.Faults = &realm.FaultPlan{LaunchCrashes: ls, CopyCrashes: cs}
	return cfg
}

// opLog wraps a machine and numbers what a crash point names: each node's
// launches, and each copy by its index among the copies its source and its
// destination send or receive. A test runs a program under it to find the
// index of the operation it wants a crash to land on. It counts the
// executor's restarts by their Quiesce calls. Native shard agents issue
// concurrently, so mu guards the log.
type opLog struct {
	realm.Exec
	mu                sync.Mutex
	launches, touches []uint64
	copies            []loggedCopy
	restarts          int
}

// loggedCopy is one copy as opLog saw it issued.
type loggedCopy struct {
	src, dst int
	at       [2]uint64 // its index among the copies src, then dst, sends or receives
	bytes    int64
	bodyless bool  // init, checkpoint capture, restore or trace ship
	ship     bool  // a trace ship: its size is the shared capture's wire size
	sent     int64 // the machine's Messages its issue added
	restarts int   // restarts begun before its issue
}

func (l *opLog) LaunchOn(node int, pre realm.Event, dur realm.Time, body func()) realm.Event {
	l.mu.Lock()
	l.launches[node]++
	l.mu.Unlock()
	return l.Exec.LaunchOn(node, pre, dur, body)
}

func (l *opLog) Quiesce() {
	l.mu.Lock()
	l.restarts++
	l.mu.Unlock()
	l.Exec.Quiesce()
}

// CopyBytes logs the copy. The lock is not held across the machine's call,
// whose continuations may issue more, so sent is exact only where nothing
// else issues concurrently: always on the DES, and for the trace ships,
// which the control agent issues on a quiesced machine.
func (l *opLog) CopyBytes(src, dst int, bytes int64, pre realm.Event, body func()) realm.Event {
	l.mu.Lock()
	c := loggedCopy{src: src, dst: dst, bytes: bytes, bodyless: body == nil, restarts: l.restarts}
	l.touches[src]++
	if dst != src {
		l.touches[dst]++
	}
	c.at = [2]uint64{l.touches[src], l.touches[dst]}
	i := len(l.copies)
	l.copies = append(l.copies, c)
	l.mu.Unlock()
	sent := l.Exec.Stats().Messages
	done := l.Exec.CopyBytes(src, dst, bytes, pre, body)
	sent = l.Exec.Stats().Messages - sent
	l.mu.Lock()
	l.copies[i].sent = sent
	l.mu.Unlock()
	return done
}

// logged runs build under cfg on a logged machine: cfg's, or a DES. Trace
// ships are told apart by their size, so it fails the test unless exactly
// as many copies have the shared capture's wire size as the run shipped.
func logged(t *testing.T, build func() *ir.Program, cfg bench.Config) (*bench.Result, *opLog) {
	t.Helper()
	x := cfg.Exec
	if x == nil {
		x = realm.MustNewSim(realm.DefaultConfig(cfg.Nodes))
	}
	l := &opLog{Exec: x, launches: make([]uint64, cfg.Nodes), touches: make([]uint64, cfg.Nodes)}
	cfg.Exec = l
	res := must(t)(bench.RunCR(build(), cfg))
	wire, ships := captureWireSize(t, res.Plans), 0
	for i := range l.copies {
		if c := &l.copies[i]; c.bytes == wire {
			c.ship = true
			ships++
		}
	}
	if ships != res.CRTrace.Ships {
		t.Fatalf("%d copies have the shared capture's wire size %d, but the run shipped %d traces", ships, wire, res.CRTrace.Ships)
	}
	return res, l
}

// copyAt is the CopyCrash that kills node at the first copy it sends or
// receives that match accepts.
func (l *opLog) copyAt(t *testing.T, node int, match func(loggedCopy) bool) realm.CopyCrash {
	t.Helper()
	for _, c := range l.copies {
		switch {
		case c.src == node && match(c):
			return realm.CopyCrash{Node: node, AtCopy: c.at[0]}
		case c.dst == node && match(c):
			return realm.CopyCrash{Node: node, AtCopy: c.at[1]}
		}
	}
	t.Fatalf("node %d sends or receives no such copy", node)
	return realm.CopyCrash{}
}

// repopulates matches the copies the rebuild of the given restart issues
// from node 0's stable storage: its restore, or its init phase when no
// checkpoint exists yet.
func repopulates(restart int) func(loggedCopy) bool {
	return func(c loggedCopy) bool { return c.src == 0 && c.bodyless && !c.ship && c.restarts == restart }
}

// midRun is the crash of node 2 at the middle of its launches in the run l
// logged.
func (l *opLog) midRun() []realm.LaunchCrash {
	return []realm.LaunchCrash{{Node: 2, AtLaunch: l.launches[2] / 2}}
}

// TestCrashRecoveryMatchesFaultFree is the acceptance test of the recovery
// layer: a run with an injected node crash, recovered through
// checkpoint/restart and shard failover, must produce region contents
// identical to the fault-free run (and to sequential semantics).
func TestCrashRecoveryMatchesFaultFree(t *testing.T) {
	build := figure2(48, 8, 8)
	res0, log0 := logged(t, build, recovered(3))
	if res0.Faults == nil || len(res0.Faults.Crashes) != 0 || res0.Faults.Restarts != 0 || res0.Faults.Checkpoints == 0 {
		t.Fatalf("fault-free run with recovery should checkpoint and nothing else, got %+v", res0.Faults)
	}
	res, err := bench.RunCR(build(), crashes(recovered(3), log0.midRun()))
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
		CrashRate:       0.02, // per launch: a crash or two within the run
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
	if len(r1.Faults.Crashes) == 0 || r1.Faults.Unrecovered {
		t.Fatalf("seed 42 should crash a node and recover: %+v", r1.Faults)
	}
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

// TestCrashDuringCheckpointCapture lands a crash inside the
// checkpoint-capture window itself — after the epoch's shards have
// completed but before the capture copies to node 0's stable storage have
// drained: node 2 dies at the first capture copy it sends. The half-taken
// checkpoint must be discarded (a nil from takeCheckpoint, one restart),
// the epoch re-runs, and the final stores stay bitwise correct. Capture
// copies are issued by the control agent alone at a quiescent epoch
// boundary, so the copy index is the same on both backends.
func TestCrashDuringCheckpointCapture(t *testing.T) {
	build := figure2(48, 8, 8)
	res0, log0 := logged(t, build, recovered(3))
	at := log0.copyAt(t, 2, func(c loggedCopy) bool { return c.dst == 0 && c.bodyless })
	for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
		cfg := crashes(recovered(3), nil, at)
		cfg.Backend = backend
		res, err := bench.RunCR(build(), cfg)
		if err != nil {
			t.Fatalf("%s: crash during checkpoint capture was not recovered: %v", backend, err)
		}
		rep := res.Faults
		if rep == nil || len(rep.Crashes) != 1 || rep.Restarts < 1 || rep.Unrecovered {
			t.Fatalf("%s: fault report = %+v, want 1 crash, >= 1 restart, recovered", backend, rep)
		}
		// The interrupted attempt still counts, so the faulty run takes
		// more checkpoint attempts than the fault-free one.
		if rep.Checkpoints <= res0.Faults.Checkpoints {
			t.Errorf("%s: checkpoints = %d, want more than the fault-free %d (the interrupted capture counts)",
				backend, rep.Checkpoints, res0.Faults.Checkpoints)
		}
		diff(t, res0.SeqResult, res)
	}
}

// TestDoubleFailover lands a second crash inside the first crash's
// recovery window — node 3 dies at the first restore copy it receives — so
// the restart path itself fails over again. With a budget of two retries
// both are consumed back-to-back, both failovers complete, and the stores
// still come out bitwise correct.
func TestDoubleFailover(t *testing.T) {
	build := figure2(48, 8, 8)
	res0, log0 := logged(t, build, recovered(4))
	first := log0.midRun()
	_, log1 := logged(t, build, crashes(recovered(4), first))
	res, err := bench.RunCR(build(), crashes(recovered(4), first, log1.copyAt(t, 3, repopulates(1))))
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
// re-capture) and still recover to correct stores. The window is probed
// over node 3's copies from the first one the rebuild sends it — the DES
// numbers copies deterministically, so whichever index lands mid-shipment
// does so on every run.
func TestCrashDuringTraceShipping(t *testing.T) {
	build := figure2(48, 8, 8)
	res0, log0 := logged(t, build, recovered(4))
	first := log0.midRun()

	// Reference single-crash run: how many ships does one clean failover do?
	res1, log1 := logged(t, build, crashes(recovered(4), first))
	baseShips := res1.CRTrace.Ships
	if baseShips == 0 {
		t.Fatal("single failover shipped nothing; the probe has no baseline")
	}

	// Probe second-crash copy indices across the rebuild until one lands
	// while shipments are in flight: the recursion then re-restarts, so the
	// run ships more than a single failover and restarts at least twice.
	found := false
	start := log1.copyAt(t, 3, repopulates(1)).AtCopy
	for at := start; at < start+40 && !found; at++ {
		res := must(t)(bench.RunCR(build(), crashes(recovered(4), first, realm.CopyCrash{Node: 3, AtCopy: at})))
		rep, stats := res.Faults, res.CRTrace
		if rep == nil || rep.Unrecovered {
			t.Fatalf("copy %d: run degraded: %+v", at, rep)
		}
		if stats.Captures != 1 || stats.PerShardCaptures != 0 {
			t.Fatalf("copy %d: failover re-captured: %+v", at, stats)
		}
		if len(rep.Crashes) == 2 && rep.Restarts >= 2 && stats.Ships > baseShips {
			found = true
			diff(t, res0.SeqResult, res)
		}
	}
	if !found {
		t.Fatalf("no probed copy of node 3 interrupted trace shipping (baseline ships = %d); widen the probe window", baseShips)
	}
}

// TestUnrecoverableDegradesToPartialResults: when crashes outpace the
// retry budget, Run returns the last checkpoint's partial results plus a
// structured report — not an error, and not a hang.
func TestUnrecoverableDegradesToPartialResults(t *testing.T) {
	build := figure2(48, 8, 8)
	_, log0 := logged(t, build, recovered(3))

	cfg := recovered(2)
	cfg.Recov.Backoff = realm.Microseconds(5)
	// Node 1 dies mid-run, then nodes 2 and 3 each die at the first
	// restore copy they receive in the rebuild that follows the crash
	// before, so no epoch ever completes between failures and the retry
	// budget of 2 exhausts. Each point is found in the run that stops
	// short of it; fault injection is deterministic, so it holds on every
	// run.
	first := []realm.LaunchCrash{{Node: 1, AtLaunch: log0.launches[1] / 2}}
	_, log1 := logged(t, build, crashes(cfg, first))
	second := log1.copyAt(t, 2, repopulates(1))
	_, log2 := logged(t, build, crashes(cfg, first, second))
	third := log2.copyAt(t, 3, repopulates(2))

	f := progtest.NewFigure2(48, 8, 8)
	res, err := bench.RunCR(f.Prog, crashes(cfg, first, second, third))
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
