package spmd_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/spmd"
)

// onNative is a fault-tolerance row on a 4-node native machine whose
// watchdog window is short, so an accidental recovery deadlock fails the
// test in milliseconds, not minutes. A seeded crash plan goes with it.
func onNative(seed uint64, watchdog time.Duration) bench.Config {
	mc := realm.DefaultConfig(4)
	mc.CoresPerNode = 4
	m := native.MustNewMachine(mc)
	m.SetHangTimeout(watchdog)
	cfg := bench.Config{Nodes: 4, Exec: m, Recov: spmd.Recovery{CheckpointEvery: 2, MaxRetries: 6, Backoff: realm.Microseconds(200)}}
	if seed != 0 {
		cfg.Faults = &realm.FaultPlan{Seed: seed, CrashRate: 100}
	}
	return cfg
}

// TestNativeCrashFailoverShipsTrace is the native half of the trace-ship
// guarantee: a crash recovered by shard failover on real goroutines must
// not re-capture — the shared capture survives, ships to the rebuilt
// placement as real messages, and every restarted shard re-specializes.
// Stores stay bitwise equal to the fault-free run and to sequential
// semantics.
func TestNativeCrashFailoverShipsTrace(t *testing.T) {
	build := figure2(48, 8, 8)
	res0 := must(t)(bench.RunCR(build(), onNative(0, 2*time.Second)))
	stats0 := res0.CRTrace
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
	got := must(t)(bench.RunCR(build(), onNative(29, 2*time.Second)))
	stats := got.CRTrace

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
	if want := int64(stats.Ships) * captureWireSize(t, got.Plans); stats.ShippedBytes != want {
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
	diff(t, res0.SeqResult, got)
	diff(t, ir.ExecSequential(build()), got)
}

// TestNativeCrashSetDeterminism pins the native determinism scope: with
// one shard agent issuing each node's launches, the per-node crash draws
// are a pure function of the seed, so identical runs crash the same node
// set and identical stores come out. (Post-failover draw interleaving can
// permute which agent consumes which draw, but not which draws exist, so
// a crash whose winning draw sits well inside the node's launch stream
// lands on every run.)
func TestNativeCrashSetDeterminism(t *testing.T) {
	run := func() *bench.Result {
		res := must(t)(bench.RunCR(figure2(48, 8, 8)(), onNative(29, 2*time.Second)))
		if res.Faults == nil || res.Faults.Unrecovered {
			t.Fatalf("run did not recover: %+v", res.Faults)
		}
		return res
	}
	r1, r2 := run(), run()
	nodesOf := func(cs []realm.NodeCrash) string {
		s := ""
		for _, c := range cs {
			s += fmt.Sprintf("%d,", c.Node) // Crashes() is node-sorted on native
		}
		return s
	}
	if c1, c2 := r1.Faults.Crashes, r2.Faults.Crashes; nodesOf(c1) != nodesOf(c2) {
		t.Errorf("same seed crashed different node sets: %v vs %v", c1, c2)
	}
	diff(t, r1.SeqResult, r2)
}

// TestNativeDoubleFailover drives two successive crashes on the native
// backend: the second failover restarts shards that are already doubled up
// on survivors, and the run must still recover to bitwise-correct stores.
// Seed 41's draws kill node 2 first and node 1 later (after the first
// failover has remapped shards), exercising restart-upon-restarted-state.
func TestNativeDoubleFailover(t *testing.T) {
	build := figure2(48, 8, 8)
	got := must(t)(bench.RunCR(build(), onNative(41, 2*time.Second)))
	if got.Faults == nil || len(got.Faults.Crashes) < 2 || got.Faults.Restarts < 2 {
		t.Fatalf("fault report = %+v, want two crashes and two restarts", got.Faults)
	}
	if got.Faults.Unrecovered {
		t.Fatalf("run degraded unexpectedly: %+v", got.Faults)
	}
	if st := got.CRTrace; st.Captures != 1 || st.PerShardCaptures != 0 {
		t.Errorf("double failover re-captured: %+v", st)
	}
	diff(t, ir.ExecSequential(build()), got)
}

// TestNativeHangWithoutRecovery pins the watchdog's integration with the
// executor: an injected crash with recovery disabled can never finish (the
// crashed shard's completion event is lost), and the run must come back as
// a structured error from the native watchdog naming the stuck agents —
// the analogue of the DES DeadlockError — rather than wedging the test.
func TestNativeHangWithoutRecovery(t *testing.T) {
	cfg := onNative(11, 50*time.Millisecond)
	cfg.Recov, cfg.Faults.CrashRate = spmd.Recovery{}, 2000
	_, err := bench.RunCR(figure2(48, 8, 8)(), cfg)
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
