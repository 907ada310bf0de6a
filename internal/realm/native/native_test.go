package native

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/realm"
)

func newTest(t *testing.T, nodes int) *Machine {
	t.Helper()
	m, err := NewMachine(realm.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEventsAndMerge(t *testing.T) {
	m := newTest(t, 2)
	if !m.Triggered(realm.NoEvent) {
		t.Fatal("NoEvent must read as triggered")
	}
	a, b := m.NewUserEvent(), m.NewUserEvent()
	merged := m.Merge(a, b)
	var fired int32
	m.OnTrigger(merged, func() { atomic.AddInt32(&fired, 1) })
	m.Trigger(a)
	if m.Triggered(merged) {
		t.Fatal("merge fired after one of two inputs")
	}
	m.Trigger(b)
	if !m.Triggered(merged) || atomic.LoadInt32(&fired) != 1 {
		t.Fatal("merge did not fire after both inputs")
	}
	if m.Merge() != realm.NoEvent {
		t.Fatal("empty merge must be NoEvent")
	}
	if !m.Triggered(m.Merge(a, b)) {
		t.Fatal("merge of triggered inputs must come back triggered")
	}
}

func TestReserveEventsContiguous(t *testing.T) {
	m := newTest(t, 1)
	first := m.ReserveEvents(4)
	for i := realm.Event(0); i < 4; i++ {
		if m.Triggered(first + i) {
			t.Fatalf("reserved event %d born triggered", first+i)
		}
	}
	m.Trigger(first + 2)
	if !m.Triggered(first+2) || m.Triggered(first+3) {
		t.Fatal("reserved handles are not independent")
	}
	if m.ReserveEvents(0) != realm.NoEvent {
		t.Fatal("zero-length reservation must be NoEvent")
	}
}

func TestDriveRunsAgentsAndWork(t *testing.T) {
	m := newTest(t, 2)
	var order []string
	done := m.LaunchOn(1, realm.NoEvent, 0, func() { order = append(order, "task") })
	m.SpawnOn("ctl", 0, 0, func(a realm.Agent) {
		a.WaitEvent(done)
		a.Elapse(realm.Microseconds(5)) // no-op, must not deadlock
		order = append(order, "ctl")
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "task" || order[1] != "ctl" {
		t.Fatalf("order = %v", order)
	}
	if _, err := m.Drive(); err == nil {
		t.Fatal("Drive must reject re-entry")
	}
	st := m.Stats()
	if st.TasksRun != 1 || st.WallNanos <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Work made ready before Drive waits for the pool, like the agents do.
	if ss := m.SchedStats(); ss.Dispatches != 1 {
		t.Errorf("Dispatches = %d, want 1: the pre-Drive launch must run on a pool worker", ss.Dispatches)
	}
}

// TestWorkReadyAsDriveStartsIsNotLost: launches whose precondition fires on
// another goroutine while Drive is starting are each queued before or
// after the pool's workers start — none is lost. The
// trigger comes from outside the machine's population, so the waiter holds
// off on a channel until it has fired rather than block in WaitEvent on an
// event no counted goroutine owes (which would be a deadlock).
func TestWorkReadyAsDriveStartsIsNotLost(t *testing.T) {
	for round := 0; round < 20; round++ {
		m := newTest(t, 2)
		gate := m.NewUserEvent()
		var ran int64
		evs := make([]realm.Event, 50)
		for k := range evs {
			evs[k] = m.LaunchOn(k%2, gate, 0, func() { atomic.AddInt64(&ran, 1) })
		}
		all := m.Merge(evs...)
		fired := make(chan struct{})
		m.SpawnOn("waiter", 0, 0, func(a realm.Agent) {
			<-fired
			a.WaitEvent(all)
		})
		go func() {
			m.Trigger(gate)
			close(fired)
		}()
		if _, err := m.Drive(); err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt64(&ran); got != int64(len(evs)) {
			t.Fatalf("round %d: %d of %d bodies ran", round, got, len(evs))
		}
	}
}

// TestLongTripBoundsEventTable is the DES test's twin: the machine keeps
// its events in the shared paged table, so memory is bounded by the events
// in flight — a million launch round trips leave the collected heap where
// they found it.
func TestLongTripBoundsEventTable(t *testing.T) {
	trips := 1000000
	if testing.Short() {
		trips = 100000
	}
	m := newTest(t, 1)
	var before, after runtime.MemStats
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		a.WaitEvent(m.LaunchOn(0, realm.NoEvent, 0, nil))
		runtime.GC()
		runtime.ReadMemStats(&before)
		for k := 0; k < trips; k++ {
			a.WaitEvent(m.LaunchOn(0, realm.NoEvent, 0, nil))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("%d launch round trips retained %d bytes of heap, want < 1 MiB", trips, grown)
	}
}

func TestPanicDrainsInsteadOfHanging(t *testing.T) {
	m := newTest(t, 1)
	never := m.NewUserEvent()
	m.SpawnOn("waiter", 0, 0, func(a realm.Agent) {
		a.WaitEvent(never) // only the failure path can release this
	})
	m.SpawnOn("boom", 0, 0, func(realm.Agent) {
		panic("kernel bug")
	})
	_, err := m.Drive()
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("err = %v, want the agent panic", err)
	}
}

// TestInjectFaultsOnceBeforeDrive pins when the native machine takes a
// plan: every part of a plan installs, exactly once, and only before Drive.
func TestInjectFaultsOnceBeforeDrive(t *testing.T) {
	m := newTest(t, 2)
	if err := m.InjectFaults(realm.FaultPlan{Seed: 1, CrashRate: 1,
		CopyCrashes: []realm.CopyCrash{{Node: 1, AtCopy: 10}}}); err != nil {
		t.Fatalf("plan rejected: %v", err)
	}
	// ...exactly once.
	if err := m.InjectFaults(realm.FaultPlan{Seed: 2, CrashRate: 1}); err == nil {
		t.Fatal("double install must be rejected")
	}
	m.SpawnOn("noop", 0, 0, func(realm.Agent) {})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	m2 := newTest(t, 2)
	m2.SpawnOn("noop", 0, 0, func(realm.Agent) {})
	if _, err := m2.Drive(); err != nil {
		t.Fatal(err)
	}
	if err := m2.InjectFaults(realm.FaultPlan{Seed: 1, CrashRate: 1}); err == nil {
		t.Fatal("post-Drive install must be rejected")
	}
}

// crashWorkload runs one launching agent per node and returns the crashed
// node set and fault stats: the determinism fixture for seeded crashes.
func crashWorkload(t *testing.T, seed uint64, nodes, launches int) ([]int, realm.FaultStats) {
	t.Helper()
	m := newTest(t, nodes)
	if err := m.InjectFaults(realm.FaultPlan{Seed: seed, CrashRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		i := i
		m.SpawnOn(fmt.Sprintf("issuer-%d", i), i, 0, func(a realm.Agent) {
			for k := 0; k < launches; k++ {
				a.WaitEvent(m.LaunchOn(i, realm.NoEvent, 0, nil))
			}
		})
	}
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	var crashed []int
	for _, c := range m.Crashes() {
		crashed = append(crashed, c.Node)
		if !m.NodeFailed(c.Node) {
			t.Errorf("node %d crashed but NodeFailed is false", c.Node)
		}
		if !m.Triggered(m.NodeFailEvent(c.Node)) {
			t.Errorf("node %d crashed but its fail event has not fired", c.Node)
		}
	}
	return crashed, m.FaultStats()
}

// TestCrashDeterminism checks that seeded crashes hit the same logical
// points on every run: while one agent issues each node's launches, the
// per-node draw sequence is a pure function of the seed, so two runs
// produce identical crash sets (wall-clock crash times differ; nodes and
// counts may not). Node 0 is the head node and must be spared.
func TestCrashDeterminism(t *testing.T) {
	crashed1, stats1 := crashWorkload(t, 42, 4, 200)
	crashed2, stats2 := crashWorkload(t, 42, 4, 200)
	if len(crashed1) == 0 {
		t.Fatal("seed 42 injected no crashes; pick a seed that does")
	}
	if fmt.Sprint(crashed1) != fmt.Sprint(crashed2) {
		t.Fatalf("crash sets differ across identical runs: %v vs %v", crashed1, crashed2)
	}
	if stats1 != stats2 {
		t.Fatalf("fault stats differ across identical runs: %+v vs %+v", stats1, stats2)
	}
	for _, n := range crashed1 {
		if n == 0 {
			t.Fatal("node 0 crashed without CrashNode0")
		}
	}
	crashed3, _ := crashWorkload(t, 43, 4, 200)
	if fmt.Sprint(crashed1) == fmt.Sprint(crashed3) && len(crashed1) == len(crashed3) {
		// Different seeds usually differ; equal sets are possible but the
		// draws must not be seed-independent. Distinguish via stats-bearing
		// reruns only if the sets matched by chance.
		t.Logf("seeds 42 and 43 crashed the same nodes %v (possible, but verify the draws' seeding on changes)", crashed1)
	}
}

// TestCopyFaultCounters checks seeded drops and duplicates: counters are
// identical across identical runs, and every extra wire transit is charged
// to Messages and BytesSent exactly as on the DES.
func TestCopyFaultCounters(t *testing.T) {
	const copies, bytes = 400, 100
	run := func() (realm.FaultStats, realm.Stats) {
		m := newTest(t, 2)
		err := m.InjectFaults(realm.FaultPlan{
			Seed: 7, DropRate: 0.1, DupRate: 0.05,
			RetransmitTimeout: realm.Microseconds(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
			for k := 0; k < copies; k++ {
				a.WaitEvent(m.CopyBytes(0, 1, bytes, realm.NoEvent, nil))
			}
		})
		if _, err := m.Drive(); err != nil {
			t.Fatal(err)
		}
		return m.FaultStats(), m.Stats()
	}
	fs1, st1 := run()
	fs2, st2 := run()
	if fs1 != fs2 {
		t.Fatalf("fault stats differ across identical runs: %+v vs %+v", fs1, fs2)
	}
	if fs1.Drops == 0 || fs1.Dups == 0 {
		t.Fatalf("seed 7 injected no message faults: %+v", fs1)
	}
	extra := fs1.Drops + fs1.Dups
	if st1.Messages != copies+extra {
		t.Errorf("Messages = %d, want %d copies + %d retransmits/dups", st1.Messages, copies, extra)
	}
	if st1.BytesSent != bytes*(copies+extra) {
		t.Errorf("BytesSent = %d, want %d", st1.BytesSent, bytes*(copies+extra))
	}
	if st1.Messages != st2.Messages || st1.BytesSent != st2.BytesSent {
		t.Errorf("traffic differs across identical runs: %+v vs %+v", st1, st2)
	}
}

// TestStragglerDelaysAreReal checks that straggler injection on native is
// an actual delay — the modeled duration scales a real sleep — and that
// every delayed item is counted.
func TestStragglerDelaysAreReal(t *testing.T) {
	m := newTest(t, 2)
	err := m.InjectFaults(realm.FaultPlan{
		Seed: 3, StragglerRate: 1, StragglerFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const items = 4
	dur := realm.Milliseconds(5)
	start := time.Now()
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		evs := make([]realm.Event, items)
		for k := range evs {
			evs[k] = m.LaunchOn(1, realm.NoEvent, dur, func() {})
		}
		a.WaitEvent(m.Merge(evs...))
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if got := m.FaultStats().Stragglers; got != items {
		t.Errorf("Stragglers = %d, want %d (rate 1 delays every item)", got, items)
	}
	// Factor 2 on a 5ms task adds a 5ms real delay; the items run
	// concurrently, so elapsed is ~one delay, not items delays.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("elapsed %v, want at least the 5ms injected delay", elapsed)
	}
}

// TestKillAgentAndQuiesce checks the failover building blocks: a killed
// agent unwinds with the shared kill sentinel (not an error), its node's
// suppressed work never fires its events, and Quiesce really waits out
// in-flight work bodies before returning.
func TestKillAgentAndQuiesce(t *testing.T) {
	m := newTest(t, 2)
	var bodyDone, sawQuiesce int32
	never := m.NewUserEvent()
	victim := m.SpawnOn("victim", 1, 0, func(a realm.Agent) {
		a.WaitEvent(never)
		t.Error("victim survived its kill")
	})
	m.SpawnOn("ctl", 0, 0, func(a realm.Agent) {
		// A slow work body is in flight while we kill and quiesce.
		done := m.LaunchOn(0, realm.NoEvent, 0, func() {
			time.Sleep(10 * time.Millisecond)
			atomic.StoreInt32(&bodyDone, 1)
		})
		m.KillAgent(victim)
		m.KillAgent(victim) // killing twice is a no-op
		m.Quiesce()
		if atomic.LoadInt32(&bodyDone) != 1 {
			t.Error("Quiesce returned with a work body still running")
		}
		atomic.StoreInt32(&sawQuiesce, 1)
		a.WaitEvent(done)
	})
	if _, err := m.Drive(); err != nil {
		t.Fatalf("a killed agent must not fail the machine: %v", err)
	}
	if atomic.LoadInt32(&sawQuiesce) != 1 {
		t.Fatal("control agent never reached Quiesce")
	}
}

func TestCollectiveFoldsInIndexOrder(t *testing.T) {
	// A non-commutative fold exposes arrival-order sensitivity: the result
	// must be the index-order fold no matter which schedule the goroutines
	// get.
	m := newTest(t, 4)
	c := m.Collective(4, 0, func(acc, v float64) float64 { return acc*10 + v })
	pres := make([]realm.Event, 4)
	for i := range pres {
		pres[i] = m.NewUserEvent()
	}
	for i := 0; i < 4; i++ {
		i := i
		m.SpawnOn(fmt.Sprintf("p%d", i), 0, 0, func(a realm.Agent) {
			c.Contribute(i, pres[i], func() float64 { return float64(i + 1) })
			a.WaitEvent(c.Done())
			if got := c.Result(); got != 1234 {
				panic(fmt.Sprintf("participant %d saw %v", i, got))
			}
		})
	}
	// Release contributions in reverse order to fight the index order.
	m.SpawnOn("release", 0, 0, func(realm.Agent) {
		for i := 3; i >= 0; i-- {
			m.Trigger(pres[i])
		}
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
}

// TestStressPrimitives is the seeded concurrency stress for the native
// sync primitives: many agents churn p2p war/done pairs, barriers, and
// collectives through randomized (but seeded, hence reproducible) think
// patterns. Run under -race this exercises the happens-before edges the
// backend promises; the collective sums double-check delivery.
func TestStressPrimitives(t *testing.T) {
	const (
		agents = 8
		rounds = 40
		seed   = 20260808
	)
	m := newTest(t, agents)
	var sums [rounds]float64
	// One contiguous war/done block per round per pair of ring neighbors,
	// mirroring the executor's dense slot layout.
	base := m.ReserveEvents(2 * agents * rounds)
	slot := func(round, who int) realm.Event {
		return base + realm.Event(2*(round*agents+who))
	}
	bars := make([]realm.BarrierOp, rounds)
	colls := make([]realm.CollectiveOp, rounds)
	for r := 0; r < rounds; r++ {
		bars[r] = m.Barrier(agents)
		colls[r] = m.Collective(agents, 0, func(acc, v float64) float64 { return acc + v })
	}
	for i := 0; i < agents; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)))
		m.SpawnOn(fmt.Sprintf("shard-%d", i), i, 0, func(a realm.Agent) {
			for r := 0; r < rounds; r++ {
				war, done := slot(r, i), slot(r, i)+1
				// Producer side: my done fires when my neighbor's war
				// (release of the previous consumer) has fired.
				m.OnTrigger(war, func() { m.Trigger(done) })
				// Randomize issue order pressure with busy work.
				for k := 0; k < rng.Intn(64); k++ {
					_ = rng.Float64()
				}
				// Consumer side: release the ring successor's pair.
				m.Trigger(slot(r, (i+1)%agents))
				colls[r].Contribute(i, done, func() float64 { return float64(r) })
				bars[r].Arrive(colls[r].Done())
				a.WaitEvent(bars[r].Done())
				if i == 0 {
					sums[r] = colls[r].Result()
				}
			}
		})
	}
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	for r, got := range sums {
		if want := float64(r * agents); got != want {
			t.Errorf("round %d: collective sum = %v, want %v", r, got, want)
		}
	}
}

// TestStressCopiesAndTasks drives a randomized producer/consumer copy
// graph: every byte moved is tallied against Stats, and every copy body
// must observe its precondition's write.
func TestStressCopiesAndTasks(t *testing.T) {
	const (
		chains = 16
		depth  = 25
		seed   = 7
	)
	m := newTest(t, 4)
	cells := make([]int64, chains)
	rng := rand.New(rand.NewSource(seed))
	var wantBytes int64
	var wantMsgs, wantLocal int64
	for c := 0; c < chains; c++ {
		c := c
		pre := realm.NoEvent
		for d := 0; d < depth; d++ {
			d := d
			bytes := int64(rng.Intn(1000) + 1)
			src, dst := rng.Intn(4), rng.Intn(4)
			if src == dst {
				wantLocal++
			} else {
				wantMsgs++
				wantBytes += bytes
			}
			pre = m.CopyBytes(src, dst, bytes, pre, func() {
				// Chained bodies run one at a time: the event edge must
				// publish the previous body's write.
				if got := atomic.LoadInt64(&cells[c]); got != int64(d) {
					panic(fmt.Sprintf("chain %d step %d saw %d", c, d, got))
				}
				atomic.StoreInt64(&cells[c], int64(d+1))
			})
		}
		fin := pre
		m.SpawnOn(fmt.Sprintf("chain-%d", c), 0, 0, func(a realm.Agent) {
			a.WaitEvent(fin)
		})
	}
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	for c := range cells {
		if cells[c] != depth {
			t.Errorf("chain %d advanced to %d, want %d", c, cells[c], depth)
		}
	}
	st := m.Stats()
	if st.BytesSent != wantBytes || st.Messages != wantMsgs || st.LocalCopies != wantLocal {
		t.Errorf("stats = %+v, want bytes=%d msgs=%d local=%d", st, wantBytes, wantMsgs, wantLocal)
	}
}

// TestPingPongNoFalseDeadlock stresses the exactness of deadlock detection
// from the other side: two agents hand a token back and forth through work
// items, each blocking while the other's item is still completing, so at
// every hand-off both agents are parked and the only thing left in flight
// is the item that wakes one of them. Alternate rounds complete inline at
// issue (no body) or on a pool worker (an empty body). A blocked agent is
// released on the completing goroutine before the item retires, so none of
// these states may read as a deadlock.
func TestPingPongNoFalseDeadlock(t *testing.T) {
	const rounds = 10000
	m := newTest(t, 2)
	ping, pong := m.ReserveEvents(rounds), m.ReserveEvents(rounds)
	var token int64
	pass := func(node, r int, out realm.Event) {
		var body func()
		if r%2 == 1 {
			body = func() { atomic.AddInt64(&token, 1) }
		} else {
			atomic.AddInt64(&token, 1)
		}
		m.TriggerAfter(out, m.LaunchOn(node, realm.NoEvent, 0, body))
	}
	m.SpawnOn("ping", 0, 0, func(a realm.Agent) {
		for r := 0; r < rounds; r++ {
			pass(0, r, ping+realm.Event(r))
			a.WaitEvent(pong + realm.Event(r))
		}
	})
	m.SpawnOn("pong", 1, 0, func(a realm.Agent) {
		for r := 0; r < rounds; r++ {
			a.WaitEvent(ping + realm.Event(r))
			pass(1, r, pong+realm.Event(r))
		}
	})
	if _, err := m.Drive(); err != nil {
		t.Fatalf("a live ping-pong failed: %v", err)
	}
	if got := atomic.LoadInt64(&token); got != 2*rounds {
		t.Errorf("token passed %d times, want %d", got, 2*rounds)
	}
}
