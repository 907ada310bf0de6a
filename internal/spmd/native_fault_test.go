package spmd

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/realm/native"
)

// runCRNative runs the Figure 2 program on the native backend with an
// optional seeded fault plan and recovery settings, returning the result
// and trace counters. The watchdog window is shortened so an accidental
// recovery deadlock fails the test in milliseconds, not minutes.
func runCRNative(t *testing.T, f *progtest.Figure2, nodes, shards int, fp *realm.FaultPlan, rec Recovery) (*Result, TraceStats) {
	t.Helper()
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: shards})
	if err != nil {
		t.Fatal(err)
	}
	m := native.MustNewMachine(testConfig(nodes))
	m.SetHangTimeout(2 * time.Second)
	if fp != nil {
		if err := m.InjectFaults(*fp); err != nil {
			t.Fatal(err)
		}
	}
	eng := New(m, f.Prog, ir.ExecReal, plans)
	eng.Recov = rec
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.TraceStats()
}

// TestNativeCrashFailoverShipsTrace is the native half of the trace-ship
// guarantee: a crash recovered by shard failover on real goroutines must
// not re-capture — the shared capture survives, ships to the rebuilt
// placement as real messages, and every restarted shard re-specializes.
// Stores stay bitwise equal to the fault-free run and to sequential
// semantics.
func TestNativeCrashFailoverShipsTrace(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 6, Backoff: realm.Microseconds(200)}

	golden := progtest.NewFigure2(48, 8, 8)
	res0, stats0 := runCRNative(t, golden, nodes, shards, nil, rec)
	if stats0.Captures != 1 || stats0.PerShardCaptures != 0 {
		t.Fatalf("fault-free counters %+v, want exactly one shared capture", stats0)
	}
	if res0.Stats.TraceShips != 0 {
		t.Fatalf("fault-free run shipped traces: %+v", res0.Stats)
	}
	if res0.Faults == nil || res0.Faults.Checkpoints == 0 || res0.Faults.Restarts != 0 {
		t.Fatalf("fault-free recovery run should checkpoint and nothing else: %+v", res0.Faults)
	}

	// CrashRate 100 is a 0.01 crash probability per launch; under seed 29
	// the draws kill exactly node 1, early enough to land mid-loop and late
	// enough that nodes 2 and 3 survive to receive trace shipments
	// (pre-failover, each node's launches are issued by its one shard
	// agent, so the per-node draw sequence is reproducible).
	f := progtest.NewFigure2(48, 8, 8)
	fp := &realm.FaultPlan{Seed: 29, CrashRate: 100}
	got, stats := runCRNative(t, f, nodes, shards, fp, rec)

	if got.Faults == nil || len(got.Faults.Crashes) == 0 || got.Faults.Restarts < 1 {
		t.Fatalf("fault report = %+v, want at least 1 crash and 1 restart", got.Faults)
	}
	if got.Faults.Unrecovered {
		t.Fatalf("run degraded unexpectedly: %+v", got.Faults)
	}
	for _, c := range got.Faults.Crashes {
		if c.Node == 0 {
			t.Fatalf("node 0 crashed without CrashNode0: %+v", got.Faults.Crashes)
		}
	}
	// Zero re-capture across the whole faulty run: failover re-specializes
	// the shipped shared capture instead.
	if stats.Captures != stats0.Captures || stats.PerShardCaptures != 0 {
		t.Errorf("failover re-captured: %+v, want the single pre-crash capture only (fault-free: %+v)", stats, stats0)
	}
	if stats.Ships == 0 {
		t.Errorf("failover shipped nothing: %+v", stats)
	}
	if want := int64(stats.Ships) * captureWireSize(t, f.Prog, shards); stats.ShippedBytes != want {
		t.Errorf("ShippedBytes = %d, want %d (%d ships of the tables' wire size)", stats.ShippedBytes, want, stats.Ships)
	}
	if got.Stats.TraceShips != int64(stats.Ships) || got.Stats.TraceShipBytes != stats.ShippedBytes {
		t.Errorf("machine ship stats %d/%d don't match engine counters %+v",
			got.Stats.TraceShips, got.Stats.TraceShipBytes, stats)
	}
	if stats.Invalidations == 0 {
		t.Errorf("failover rebuild discarded no plans: %+v", stats)
	}

	// The keystone: recovered native stores are bitwise equal to the
	// fault-free native run and to sequential semantics.
	assertEqualStores(t, res0.Stores[golden.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, res0.Stores[golden.B], got.Stores[f.B], f.B, f.Val)
	refSeq := progtest.NewFigure2(48, 8, 8)
	seq := ir.ExecSequential(refSeq.Prog)
	assertEqualStores(t, seq.Stores[refSeq.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[refSeq.B], got.Stores[f.B], f.B, f.Val)
}

// TestNativeCrashSetDeterminism pins the native determinism scope: with
// one shard agent issuing each node's launches, the per-node crash draws
// are a pure function of the seed, so identical runs crash the same node
// set and identical stores come out. (Post-failover draw interleaving can
// permute which agent consumes which draw, but not which draws exist, so
// a crash whose winning draw sits well inside the node's launch stream
// lands on every run.)
func TestNativeCrashSetDeterminism(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 6, Backoff: realm.Microseconds(200)}
	run := func() ([]realm.NodeCrash, *Result, *progtest.Figure2) {
		f := progtest.NewFigure2(48, 8, 8)
		fp := &realm.FaultPlan{Seed: 29, CrashRate: 100}
		res, _ := runCRNative(t, f, nodes, shards, fp, rec)
		if res.Faults == nil || res.Faults.Unrecovered {
			t.Fatalf("run did not recover: %+v", res.Faults)
		}
		return res.Faults.Crashes, res, f
	}
	c1, r1, f1 := run()
	c2, r2, f2 := run()
	nodesOf := func(cs []realm.NodeCrash) string {
		s := ""
		for _, c := range cs {
			s += fmt.Sprintf("%d,", c.Node) // Crashes() is node-sorted on native
		}
		return s
	}
	if nodesOf(c1) != nodesOf(c2) {
		t.Errorf("same seed crashed different node sets: %v vs %v", c1, c2)
	}
	assertEqualStores(t, r1.Stores[f1.A], r2.Stores[f2.A], f2.A, f2.Val)
	assertEqualStores(t, r1.Stores[f1.B], r2.Stores[f2.B], f2.B, f2.Val)
}

// TestNativeDoubleFailover drives two successive crashes on the native
// backend: the second failover restarts shards that are already doubled up
// on survivors, and the run must still recover to bitwise-correct stores.
// Seed 41's draws kill node 2 first and node 1 later (after the first
// failover has remapped shards), exercising restart-upon-restarted-state.
func TestNativeDoubleFailover(t *testing.T) {
	const nodes, shards = 4, 4
	rec := Recovery{CheckpointEvery: 2, MaxRetries: 6, Backoff: realm.Microseconds(200)}
	f := progtest.NewFigure2(48, 8, 8)
	fp := &realm.FaultPlan{Seed: 41, CrashRate: 100}
	got, stats := runCRNative(t, f, nodes, shards, fp, rec)
	if got.Faults == nil || len(got.Faults.Crashes) < 2 || got.Faults.Restarts < 2 {
		t.Fatalf("fault report = %+v, want two crashes and two restarts", got.Faults)
	}
	if got.Faults.Unrecovered {
		t.Fatalf("run degraded unexpectedly: %+v", got.Faults)
	}
	if stats.Captures != 1 || stats.PerShardCaptures != 0 {
		t.Errorf("double failover re-captured: %+v", stats)
	}
	refSeq := progtest.NewFigure2(48, 8, 8)
	seq := ir.ExecSequential(refSeq.Prog)
	assertEqualStores(t, seq.Stores[refSeq.A], got.Stores[f.A], f.A, f.Val)
	assertEqualStores(t, seq.Stores[refSeq.B], got.Stores[f.B], f.B, f.Val)
}

// TestNativeHangWithoutRecovery pins the watchdog's integration with the
// executor: an injected crash with recovery disabled can never finish (the
// crashed shard's completion event is lost), and the run must come back as
// a structured error from the native watchdog naming the stuck agents —
// the analogue of the DES DeadlockError — rather than wedging the test.
func TestNativeHangWithoutRecovery(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 8)
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := native.MustNewMachine(testConfig(4))
	m.SetHangTimeout(50 * time.Millisecond)
	if err := m.InjectFaults(realm.FaultPlan{Seed: 11, CrashRate: 2000}); err != nil {
		t.Fatal(err)
	}
	eng := New(m, f.Prog, ir.ExecReal, plans)
	_, err = eng.Run()
	if err == nil {
		t.Fatal("crash without recovery completed; the lost shard should hang the run")
	}
	var he *realm.HangError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want a realm.HangError from the watchdog", err)
	}
	if len(he.Blocked) == 0 {
		t.Fatalf("hang reported no blocked agents: %v", err)
	}
}
