package native

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/realm"
)

// maxGoroutinesDuring floods the machine with sleeping work bodies and
// samples runtime.NumGoroutine from inside them, returning the high-water
// mark.
func maxGoroutinesDuring(t *testing.T, nodes, procs, items int) int {
	t.Helper()
	m := newTest(t, nodes)
	m.SetProcs(procs)
	var maxG int64
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		evs := make([]realm.Event, items)
		for k := range evs {
			evs[k] = m.LaunchOn(k%nodes, realm.NoEvent, 0, func() {
				g := int64(runtime.NumGoroutine())
				for {
					cur := atomic.LoadInt64(&maxG)
					if g <= cur || atomic.CompareAndSwapInt64(&maxG, cur, g) {
						break
					}
				}
				time.Sleep(time.Millisecond)
			})
		}
		a.WaitEvent(m.Merge(evs...))
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	return int(atomic.LoadInt64(&maxG))
}

// TestSchedulerBoundsGoroutines is the pool's reason to exist: a flood of
// concurrently runnable items executes on O(nodes x procs) goroutines,
// where a goroutine per item would grow with the flood itself.
func TestSchedulerBoundsGoroutines(t *testing.T) {
	const nodes, procs, items = 4, 2, 300
	pooled := maxGoroutinesDuring(t, nodes, procs, items)
	// Pool bound: nodes x procs workers plus the issuer, the driver, the
	// test runtime's own goroutines, and slack for timers.
	if bound := nodes*procs + 24; pooled > bound {
		t.Errorf("pooled high-water mark = %d goroutines, want <= %d (O(nodes x procs))", pooled, bound)
	}
}

// TestSchedulerStealsCrossNode drives a steal storm: every item targets
// node 0's deque, so the other nodes' workers can make progress only by
// cross-node stealing. Every dispatch is counted, and the storm must
// produce steals.
func TestSchedulerStealsCrossNode(t *testing.T) {
	const nodes, items = 4, 200
	m := newTest(t, nodes)
	m.SetProcs(1)
	var ran int64
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		evs := make([]realm.Event, items)
		for k := range evs {
			evs[k] = m.LaunchOn(0, realm.NoEvent, 0, func() {
				atomic.AddInt64(&ran, 1)
				time.Sleep(200 * time.Microsecond)
			})
		}
		a.WaitEvent(m.Merge(evs...))
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if ran != items {
		t.Fatalf("ran %d of %d bodies", ran, items)
	}
	ss := m.SchedStats()
	if ss.Workers != nodes {
		t.Errorf("Workers = %d, want %d (nodes x 1 proc)", ss.Workers, nodes)
	}
	if ss.Dispatches != items {
		t.Errorf("Dispatches = %d, want %d (every body has a queue hop)", ss.Dispatches, items)
	}
	if ss.Steals == 0 {
		t.Error("Steals = 0: a single-node storm must force cross-node steals")
	}
	for n, d := range ss.QueueDepths {
		if d != 0 {
			t.Errorf("node %d queue depth = %d after Drive, want 0", n, d)
		}
	}
}

// TestInlineCompletionsCounted pins the inline fast path: nil-body,
// zero-delay launches and copies complete on the triggering goroutine with
// no queue hop, and are tallied as such.
func TestInlineCompletionsCounted(t *testing.T) {
	const launches, copies = 50, 50
	m := newTest(t, 2)
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		evs := make([]realm.Event, 0, launches+copies)
		for k := 0; k < launches; k++ {
			evs = append(evs, m.LaunchOn(k%2, realm.NoEvent, realm.Microseconds(5), nil))
		}
		for k := 0; k < copies; k++ {
			evs = append(evs, m.CopyBytes(k%2, (k+1)%2, 64, realm.NoEvent, nil))
		}
		a.WaitEvent(m.Merge(evs...))
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	ss := m.SchedStats()
	if ss.InlineCompletions != launches+copies {
		t.Errorf("InlineCompletions = %d, want %d", ss.InlineCompletions, launches+copies)
	}
	if ss.Dispatches != 0 {
		t.Errorf("Dispatches = %d, want 0 (nothing had a body)", ss.Dispatches)
	}
}

// TestNodeWorkersShareOneQueue: a node's workers serve one deque. Body a
// makes x and then b ready and blocks until b has run, so the node's
// other worker must take b, and taking it is no steal: a steal crosses
// nodes.
func TestNodeWorkersShareOneQueue(t *testing.T) {
	m := newTest(t, 1)
	m.SetProcs(2)
	m.SpawnOn("issuer", 0, 0, func(ag realm.Agent) {
		gate := m.NewUserEvent()
		behind := make(chan struct{})
		x := m.LaunchOn(0, gate, 0, func() {})
		b := m.LaunchOn(0, gate, 0, func() { close(behind) })
		a := m.LaunchOn(0, realm.NoEvent, 0, func() {
			m.Trigger(gate)
			<-behind
		})
		ag.WaitEvent(m.Merge(a, x, b))
	})
	done := make(chan error, 1)
	go func() {
		_, err := m.Drive()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the item behind a blocked body never ran: the node's other worker did not take it")
	}
	ss := m.SchedStats()
	if ss.Workers != 2 {
		t.Errorf("Workers = %d, want 2 (one node x 2 procs)", ss.Workers)
	}
	if ss.Dispatches != 3 || ss.Steals != 0 {
		t.Errorf("Dispatches = %d, Steals = %d, want 3 and 0", ss.Dispatches, ss.Steals)
	}
}

// TestLaunchCrashSchedule pins the logical-point crash schedule on native:
// "node 1 dies at its 3rd launch" installs cleanly (unlike virtual-time
// schedules) and, with the issuer serializing launches, kills the node
// after exactly two executed bodies on every run.
func TestLaunchCrashSchedule(t *testing.T) {
	run := func() (ran int64, crashes []realm.NodeCrash) {
		m := newTest(t, 2)
		err := m.InjectFaults(realm.FaultPlan{
			LaunchCrashes: []realm.LaunchCrash{{Node: 1, AtLaunch: 3}},
		})
		if err != nil {
			t.Fatalf("a logical-point schedule must install on native: %v", err)
		}
		m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
			for k := 0; k < 5; k++ {
				done := m.LaunchOn(1, realm.NoEvent, 0, func() { atomic.AddInt64(&ran, 1) })
				if m.NodeFailed(1) {
					break // the launch was lost; its event will never fire
				}
				a.WaitEvent(done)
			}
			a.WaitEvent(m.NodeFailEvent(1))
		})
		if _, err := m.Drive(); err != nil {
			t.Fatal(err)
		}
		return atomic.LoadInt64(&ran), m.Crashes()
	}
	for i := 0; i < 2; i++ {
		ran, crashes := run()
		if ran != 2 {
			t.Errorf("run %d: %d bodies executed, want exactly 2 (the crash precedes launch 3)", i, ran)
		}
		if len(crashes) != 1 || crashes[0].Node != 1 {
			t.Errorf("run %d: crash log = %+v, want one crash of node 1", i, crashes)
		}
	}
	// AtLaunch is 1-based: 0 is a validation error, exactly as on the DES.
	m := newTest(t, 2)
	if err := m.InjectFaults(realm.FaultPlan{
		LaunchCrashes: []realm.LaunchCrash{{Node: 1, AtLaunch: 0}},
	}); err == nil {
		t.Error("AtLaunch 0 must be rejected")
	}
}

// TestCrashDuringStealStorm crashes a node in the middle of a steal storm
// aimed at it: items already queued for the dead node are dropped at
// dequeue, items for live nodes still run, and the machine drains cleanly.
// Under -race this exercises the crashed-node drop path concurrently with
// stealing workers.
func TestCrashDuringStealStorm(t *testing.T) {
	const nodes, storm, live = 4, 120, 40
	m := newTest(t, nodes)
	m.SetProcs(1)
	err := m.InjectFaults(realm.FaultPlan{
		LaunchCrashes: []realm.LaunchCrash{{Node: 1, AtLaunch: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var onVictim, onLive int64
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		for k := 0; k < storm; k++ {
			m.LaunchOn(1, realm.NoEvent, 0, func() {
				atomic.AddInt64(&onVictim, 1)
				time.Sleep(100 * time.Microsecond)
			})
		}
		evs := make([]realm.Event, live)
		for k := range evs {
			evs[k] = m.LaunchOn(2+k%2, realm.NoEvent, 0, func() {
				atomic.AddInt64(&onLive, 1)
				time.Sleep(100 * time.Microsecond)
			})
		}
		a.WaitEvent(m.Merge(evs...))
		a.WaitEvent(m.NodeFailEvent(1))
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if got := m.Crashes(); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("crash log = %+v, want one crash of node 1", got)
	}
	if v := atomic.LoadInt64(&onVictim); v >= storm {
		t.Errorf("all %d storm bodies ran despite the mid-storm crash", v)
	}
	if l := atomic.LoadInt64(&onLive); l != live {
		t.Errorf("live-node bodies ran %d of %d", l, live)
	}
}

// TestQuiesceDrainsLoadedDeques checks the drain protocol with a backlog:
// items still sitting in deques count as in-flight, so Quiesce must wait
// for them, and a loaded pool must not read as a deadlock while the only
// agent is blocked on it.
func TestQuiesceDrainsLoadedDeques(t *testing.T) {
	const items = 20
	m := newTest(t, 2)
	m.SetProcs(1)
	var done int64
	backlog := func() realm.Event {
		evs := make([]realm.Event, items)
		for k := range evs {
			evs[k] = m.LaunchOn(1, realm.NoEvent, 0, func() {
				time.Sleep(2 * time.Millisecond)
				atomic.AddInt64(&done, 1)
			})
		}
		return m.Merge(evs...)
	}
	m.SpawnOn("ctl", 0, 0, func(a realm.Agent) {
		backlog()
		m.Quiesce()
		if got := atomic.LoadInt64(&done); got != items {
			t.Errorf("Quiesce returned with %d of %d bodies finished", got, items)
		}
		a.WaitEvent(backlog()) // blocked for the whole second backlog
	})
	if _, err := m.Drive(); err != nil {
		t.Fatalf("a loaded pool read as a deadlock: %v", err)
	}
	if got := atomic.LoadInt64(&done); got != 2*items {
		t.Errorf("%d of %d bodies finished", got, 2*items)
	}
}

// TestProcsSizing pins the pool-shape knobs: the default per-node worker
// count is an equal share of GOMAXPROCS (at least one), and SetProcs
// overrides it, reflected in SchedStats.Workers.
func TestProcsSizing(t *testing.T) {
	m := newTest(t, 3)
	want := runtime.GOMAXPROCS(0) / 3
	if want < 1 {
		want = 1
	}
	if got := m.Procs(); got != want {
		t.Errorf("default Procs() = %d, want %d", got, want)
	}
	m.SetProcs(5)
	if got := m.Procs(); got != 5 {
		t.Errorf("Procs() after SetProcs(5) = %d, want 5", got)
	}
	m.SpawnOn("noop", 0, 0, func(realm.Agent) {})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	if ss := m.SchedStats(); ss.Workers != 15 {
		t.Errorf("Workers = %d, want 15 (3 nodes x 5 procs)", ss.Workers)
	}
}

// TestTimeRecorderObservesWork checks that an attached recorder sees one
// sample per executed launch and copy body, with the modeled duration and
// byte count passed through.
func TestTimeRecorderObservesWork(t *testing.T) {
	m := newTest(t, 2)
	rec := realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(2)})
	m.SetTimeRecorder(rec)
	m.SpawnOn("issuer", 0, 0, func(a realm.Agent) {
		for k := 0; k < 8; k++ {
			a.WaitEvent(m.LaunchOn(k%2, realm.NoEvent, realm.Microseconds(50), func() {
				time.Sleep(50 * time.Microsecond)
			}))
		}
		for k := 0; k < 4; k++ {
			a.WaitEvent(m.CopyBytes(0, 1, 4096, realm.NoEvent, func() {}))
		}
	})
	if _, err := m.Drive(); err != nil {
		t.Fatal(err)
	}
	launches, copies := rec.Samples()
	if launches != 8 || copies != 4 {
		t.Errorf("samples = %d launches / %d copies, want 8 / 4", launches, copies)
	}
	if d := rec.TaskDuration(realm.Microseconds(50)); d <= 0 {
		t.Errorf("fitted TaskDuration = %d, want > 0", d)
	}
}
