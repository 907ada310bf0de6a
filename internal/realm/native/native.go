// Package native implements the realm execution interface (realm.Exec) on
// real goroutines over shared memory: the second backend of the engine /
// time-policy split. Where the DES interprets the event graph on one
// virtual clock, the native Machine runs it — one goroutine per control
// agent (a CR shard thread), a fixed pool of worker goroutines executing
// the ready work items off one deque per node (sched.go; affinity
// placement, a LIFO slot, cross-node stealing), real memcpy-style region
// copies in task and copy bodies, and wall-clock timing. Zero-cost
// completions (nil body, no injected delay) short-circuit inline at
// trigger without touching a queue.
//
// The machine's state sits under two mutexes: mu guards the event table
// alone, qmu everything else (the population, the ready deques, the
// workers' stop flag, the agents waiting for Drive, the crash log and the
// first error). The one lock order is mu then qmu: nothing takes mu while
// holding qmu.
//
// The memory model is the event graph itself. Engines order every pair of
// conflicting accesses through events (task preconditions, p2p war/done
// pairs, barriers, collectives), and the Machine gives each trigger edge a
// happens-before edge: a continuation or a woken agent observes everything
// the triggering goroutine wrote, because registration and trigger
// synchronize through the event-table mutex. Floating-point results are
// bitwise identical to the DES not because the schedule is identical (it is
// not — real cores race) but because every order that could affect a float
// is fixed by explicit dependences: reduction copies chain in source order
// through shared done events, and collectives fold contributions in
// participant-index order regardless of arrival order.
//
// Time-model operations are deliberately inert: Agent.Elapse is a no-op
// (the agent's real work is its cost), LaunchOn uses the modeled duration
// only to scale injected straggler delays, and Now/Stats report wall-clock
// nanoseconds since construction. Agent.Sleep is a real sleep — the
// recovery layer's restart backoff is wall-clock here.
//
// Fault injection (InjectFaults) goes through the realm.FaultInjector the
// DES uses: it advances the per-node launch and copy counters at issue and
// applies the plan's decisions there, so a plan injects the faults it
// injects on the DES wherever a node's operations are issued in the same
// order — no wall-clock timer decides a fault. The machine supplies only
// its failure flags and crashNode, and charges the cost. Crashes cancel
// the node's agent goroutines (they unwind with the shared kill sentinel at
// their next scheduling point) and suppress not-yet-started work touching
// the node; drops pay an exponential-backoff retransmit delay; stragglers
// sleep for real.
//
// Deadlock is decided exactly, as on the DES: the machine counts its
// population (agents, in-flight work items, blocked agents), and the
// moment every agent is blocked with no work item in flight — nothing left
// can fire an event — it fails with the realm.DeadlockError the DES
// returns, naming each blocked agent and the primitive it is parked on.
package native

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/realm"
)

// Event kinds label what primitive owns each event, so a deadlock report
// can say what a blocked agent is parked on.
const (
	evUser uint8 = iota
	evTask
	evCopy
	evBarrier
	evCollective
	evMerge
	evSync
	evFail
)

var evKindNames = [...]string{"user", "task", "copy", "barrier", "collective", "merge", "sync", "node-fail"}

// Machine is a native shared-memory implementation of realm.Exec.
type Machine struct {
	cfg   realm.Config
	epoch time.Time

	// mu guards the event table.
	mu     sync.Mutex
	events realm.EventTable

	// qmu guards the rest. The population: agents (from SpawnOn until they
	// finish), inflight work items (from precondition trigger to
	// completion, queued ones included), zombies (killed agents not yet
	// unwound) and blocked agents (parked in WaitEvent on an unfired
	// event), plus each agent's killed/done/parked state. Every event that
	// will fire is owed to an unblocked agent or an in-flight item, so
	// Drive waits on dcond for agents and inflight to drain, Quiesce on
	// qcond for inflight and zombies, and agents > 0 && blocked == agents
	// && inflight == 0 is a deadlock. Then the scheduler (sched.go): one
	// ready deque per node, and the cond and stop flag the pool's workers
	// park on and exit at. Then driving (Drive has begun), the agents
	// spawned before it, agentsOn, the crash log and the first error, whose
	// recording closes failCh: agents blocked in WaitEvent abandon their
	// waits, so the machine drains instead of hanging on events a dead
	// goroutine will never trigger.
	qmu      sync.Mutex
	qcond    *sync.Cond
	dcond    *sync.Cond
	agents   int
	inflight int
	zombies  int
	blocked  int
	qs       []deque
	wcond    *sync.Cond
	stop     bool
	driving  bool
	spawned  []func()
	agentsOn [][]*agent // every agent spawned, by node
	crashLog []realm.NodeCrash
	err      error
	failCh   chan struct{}

	// workers counts the running pool workers; Drive waits out their exit.
	workers sync.WaitGroup

	// Configured before Drive only (the workers' goroutine starts publish
	// them): the per-node worker count (0 → defaultProcs) and the recorder.
	procs    int
	recorder realm.TimeRecorder

	// Fault state. faults is written once before Drive (InjectFaults) and
	// read without locking afterwards — the goroutine-start edges of Drive
	// publish it; it is safe for concurrent fault points. The per-node
	// failure flags are atomics. nodeFailEv is made in NewMachine and
	// read-only after.
	faults      *realm.FaultInjector
	nodeFailEv  []realm.Event
	failedNodes []int32 // atomic 0/1 per node

	// Counters (atomics: work items complete concurrently).
	messages    int64
	bytesSent   int64
	localCopies int64
	tasksRun    int64
	eventsFired int64
	dispatches  int64 // items executed by pool workers
	steals      int64 // items a worker took from another node's deque
	inline      int64 // launches/copies completed inline at trigger
}

// NewMachine builds a native machine for the given configuration. Only the
// topology fields (Nodes, CoresPerNode) govern execution; the cost-model
// fields are carried for Config() but never charged (except
// RetransmitTimeout defaults, which scale from NetLatency).
func NewMachine(cfg realm.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:         cfg,
		qs:          make([]deque, cfg.Nodes),
		agentsOn:    make([][]*agent, cfg.Nodes),
		failCh:      make(chan struct{}),
		nodeFailEv:  make([]realm.Event, cfg.Nodes),
		failedNodes: make([]int32, cfg.Nodes),
	}
	m.qcond = sync.NewCond(&m.qmu)
	m.dcond = sync.NewCond(&m.qmu)
	m.wcond = sync.NewCond(&m.qmu)
	first := m.events.Reserve(cfg.Nodes)
	for i := range m.nodeFailEv {
		m.nodeFailEv[i] = first + realm.Event(i)
		m.events.SetKind(m.nodeFailEv[i], evFail)
	}
	m.epoch = time.Now()
	return m, nil
}

// MustNewMachine is NewMachine for statically valid configurations.
func MustNewMachine(cfg realm.Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

var _ realm.Exec = (*Machine)(nil)

// Backend implements realm.Exec.
func (m *Machine) Backend() string { return "native" }

// Config implements realm.Exec.
func (m *Machine) Config() realm.Config { return m.cfg }

// Nodes implements realm.Exec.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Now returns wall-clock nanoseconds since the machine was created.
func (m *Machine) Now() realm.Time {
	return realm.Time(time.Since(m.epoch))
}

// Stats implements realm.Exec; WallNanos carries the elapsed wall-clock
// time that the DES's virtual counters cannot.
func (m *Machine) Stats() realm.Stats {
	return realm.Stats{
		Messages:    atomic.LoadInt64(&m.messages),
		BytesSent:   atomic.LoadInt64(&m.bytesSent),
		LocalCopies: atomic.LoadInt64(&m.localCopies),
		TasksRun:    atomic.LoadInt64(&m.tasksRun),
		Events:      atomic.LoadInt64(&m.eventsFired),
		WallNanos:   int64(m.Now()),
	}
}

// InjectFaults implements realm.Exec: every part of a plan is supported.
// Must be called before Drive, at most once.
func (m *Machine) InjectFaults(fp realm.FaultPlan) error {
	m.qmu.Lock()
	driving := m.driving
	m.qmu.Unlock()
	switch {
	case driving:
		return fmt.Errorf("native: InjectFaults must be called before Drive")
	case m.faults != nil:
		return fmt.Errorf("native: a fault plan is already installed")
	}
	f, err := realm.NewFaultInjector(fp, m.cfg, m.nodeDown, m.crashNode)
	if err == nil {
		m.faults = f
	}
	return err
}

// FaultStats implements realm.Exec.
func (m *Machine) FaultStats() realm.FaultStats {
	m.qmu.Lock()
	crashes := len(m.crashLog)
	m.qmu.Unlock()
	return m.faults.Stats(crashes)
}

// Crashes implements realm.Exec. Concurrent crashes have no total
// wall-clock order, so the log is reported sorted by node for
// reproducibility.
func (m *Machine) Crashes() []realm.NodeCrash {
	m.qmu.Lock()
	out := append([]realm.NodeCrash(nil), m.crashLog...)
	m.qmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// NodeFailed implements realm.Exec.
func (m *Machine) NodeFailed(node int) bool { return m.nodeDown(node) }

func (m *Machine) nodeDown(node int) bool {
	return node >= 0 && node < len(m.failedNodes) && atomic.LoadInt32(&m.failedNodes[node]) != 0
}

// NodeFailEvent implements realm.Exec: the event fires when (or fired
// because) the node crashes.
func (m *Machine) NodeFailEvent(node int) realm.Event { return m.nodeFailEv[node] }

// crashNode fail-stops a node: its failure flag suppresses every
// not-yet-started work item touching it (lost work, as on the DES), every
// agent on it is killed — each unwinds with the shared kill sentinel at
// its next scheduling point — and then its fail event fires, so whoever
// wakes on it and quiesces waits for those agents to unwind. Crashing a
// dead node is a no-op.
func (m *Machine) crashNode(id int) {
	m.qmu.Lock()
	if m.nodeDown(id) {
		m.qmu.Unlock()
		return
	}
	atomic.StoreInt32(&m.failedNodes[id], 1)
	m.crashLog = append(m.crashLog, realm.NodeCrash{Node: id, At: m.Now()})
	for _, a := range m.agentsOn[id] {
		m.killLocked(a)
	}
	m.qmu.Unlock()
	m.Trigger(m.nodeFailEv[id])
}

// KillAgent implements realm.Exec: the agent unwinds with the kill
// sentinel at its next scheduling point (WaitEvent or Sleep). Its
// in-flight work items are unaffected; only the control flow stops.
func (m *Machine) KillAgent(a realm.Agent) {
	if ag, ok := a.(*agent); ok {
		m.qmu.Lock()
		m.killLocked(ag)
		m.qmu.Unlock()
	}
}

// killLocked kills a, under qmu.
func (m *Machine) killLocked(a *agent) {
	if a.done || a.killed {
		return
	}
	a.killed = true
	m.zombies++
	m.unparkLocked(a)
	close(a.kill)
}

// Quiesce implements realm.Exec: block until every in-flight work
// item has completed and every killed agent has unwound. The recovery
// layer calls it before restoring a checkpoint so zombie work from an
// abandoned epoch cannot race the restore.
func (m *Machine) Quiesce() {
	m.qmu.Lock()
	for m.inflight > 0 || m.zombies > 0 {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
}

// settleUnlock releases qmu after a population change that can drain the
// machine or complete a deadlock (an item retires, an agent exits or
// blocks). It wakes Quiesce and Drive only once their own condition
// holds, and fails a machine not yet failed when every agent is blocked
// with nothing in flight.
func (m *Machine) settleUnlock() {
	if m.inflight == 0 && m.zombies == 0 {
		m.qcond.Broadcast()
		if m.agents == 0 {
			m.dcond.Signal()
		}
	}
	dead := m.inflight == 0 && m.agents > 0 && m.blocked == m.agents && !m.failed()
	m.qmu.Unlock()
	if dead {
		m.failDeadlock()
	}
}

// unparkLocked clears a's blocked mark, under qmu.
func (m *Machine) unparkLocked(a *agent) {
	if a.parked != realm.NoEvent {
		a.parked = realm.NoEvent
		m.blocked--
	}
}

// park registers a continuation closing wake on e and marks a blocked on
// it before the event can fire (lock order mu → qmu). The mark is cleared
// by the continuation, on the triggering goroutine before wake closes, or
// by a kill — never by the woken goroutine — so an agent whose event
// is firing is always covered by the counted agent or item firing it, and
// a deadlock seen here is real. A killed agent is never marked: it is
// about to unwind. park reports false, registering nothing, when e has
// already fired.
func (m *Machine) park(a *agent, e realm.Event, wake chan struct{}) bool {
	m.mu.Lock()
	waiting := m.events.Await(e, func() {
		m.qmu.Lock()
		m.unparkLocked(a)
		m.qmu.Unlock()
		close(wake)
	})
	if !waiting {
		m.mu.Unlock()
		return false
	}
	m.qmu.Lock()
	m.mu.Unlock() // the continuation cannot clear the mark before qmu is free
	if !a.killed {
		a.parked = e
		m.blocked++
	}
	m.settleUnlock()
	return true
}

// failDeadlock fails the machine with a *realm.DeadlockError naming every
// blocked agent, sorted by name, and the primitive its event belongs to.
// Nothing can change a deadlocked population, so the report is exact.
func (m *Machine) failDeadlock() {
	derr := &realm.DeadlockError{Now: m.Now()}
	m.qmu.Lock()
	for _, on := range m.agentsOn {
		for _, a := range on {
			if a.parked != realm.NoEvent {
				derr.Blocked = append(derr.Blocked, realm.BlockedThread{Name: a.name, Waiting: a.parked})
			}
		}
	}
	m.qmu.Unlock()
	sort.SliceStable(derr.Blocked, func(i, j int) bool { return derr.Blocked[i].Name < derr.Blocked[j].Name })
	m.mu.Lock()
	for i := range derr.Blocked {
		derr.Blocked[i].Primitive = evKindNames[m.events.Kind(derr.Blocked[i].Waiting)]
	}
	m.mu.Unlock()
	m.fail(derr)
}

func (m *Machine) newEvent(kind uint8) realm.Event {
	m.mu.Lock()
	e := m.events.Reserve(1)
	m.events.SetKind(e, kind)
	m.mu.Unlock()
	return e
}

// NewUserEvent implements realm.Exec.
func (m *Machine) NewUserEvent() realm.Event { return m.newEvent(evUser) }

// ReserveEvents implements realm.Exec: n contiguous untriggered handles
// (the executor's dense p2p sync slots).
func (m *Machine) ReserveEvents(n int) realm.Event {
	if n <= 0 {
		return realm.NoEvent
	}
	m.mu.Lock()
	first := m.events.Reserve(n)
	for e := first; e < first+realm.Event(n); e++ {
		m.events.SetKind(e, evSync)
	}
	m.mu.Unlock()
	return first
}

// Trigger implements realm.Exec. Continuations run synchronously on the
// triggering goroutine, outside the table lock, so they may re-enter the
// machine (trigger further events, register waiters, spawn work).
func (m *Machine) Trigger(e realm.Event) {
	if e == realm.NoEvent {
		panic("native: cannot trigger NoEvent")
	}
	m.mu.Lock()
	first, chain, ok := m.events.Fire(e)
	var rest []func()
	for chain != 0 {
		rest = append(rest, m.events.Next(&chain))
	}
	m.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("native: event %d triggered twice", e))
	}
	atomic.AddInt64(&m.eventsFired, 1)
	if first != nil {
		first()
	}
	for _, fn := range rest {
		fn()
	}
}

// TriggerAfter implements realm.Exec.
func (m *Machine) TriggerAfter(e, pre realm.Event) {
	m.OnTrigger(pre, func() { m.Trigger(e) })
}

// Triggered implements realm.Exec.
func (m *Machine) Triggered(e realm.Event) bool {
	if e == realm.NoEvent {
		return true
	}
	m.mu.Lock()
	t := m.events.Triggered(e)
	m.mu.Unlock()
	return t
}

// OnTrigger implements realm.Exec; fn runs inline when e already fired.
func (m *Machine) OnTrigger(e realm.Event, fn func()) {
	if e == realm.NoEvent {
		fn()
		return
	}
	m.mu.Lock()
	waiting := m.events.Await(e, fn)
	m.mu.Unlock()
	if !waiting {
		fn()
	}
}

// Merge implements realm.Exec via an atomic countdown: the extra initial
// count covers registration itself, so inputs may trigger concurrently
// while the loop is still walking them.
func (m *Machine) Merge(evs ...realm.Event) realm.Event {
	if len(evs) == 0 {
		return realm.NoEvent
	}
	out := m.newEvent(evMerge)
	remaining := int64(len(evs)) + 1
	dec := func() {
		if atomic.AddInt64(&remaining, -1) == 0 {
			m.Trigger(out)
		}
	}
	for _, e := range evs {
		m.OnTrigger(e, dec)
	}
	dec()
	return out
}

// SpawnOn implements realm.Exec: fn runs on its own goroutine. The node
// binding is advisory for placement on shared memory — the Go scheduler
// owns cores — but is authoritative for fault injection: a crash of the
// node kills the agents spawned on it. The agent is counted from here, not
// from when its goroutine starts, so a peer released first cannot block
// alone and read as a deadlock.
func (m *Machine) SpawnOn(name string, node, proc int, fn func(realm.Agent)) realm.Agent {
	_ = proc
	a := &agent{m: m, name: name, node: node, kill: make(chan struct{})}
	run := func() {
		defer func() {
			m.qmu.Lock()
			a.done = true
			m.agents--
			if a.killed {
				m.zombies--
			}
			m.unparkLocked(a) // a waiter unwinding from a failed machine
			m.settleUnlock()
		}()
		defer m.capturePanic("agent " + name)
		fn(a)
	}
	m.qmu.Lock()
	m.agentsOn[node] = append(m.agentsOn[node], a)
	m.agents++
	driving := m.driving
	if !driving {
		m.spawned = append(m.spawned, run)
	}
	m.qmu.Unlock()
	if driving {
		go run()
	}
	return a
}

// LaunchOn implements realm.Exec. The modeled duration is not charged —
// the body's real execution time is the cost — but it scales injected
// straggler delays. A body-less item (a modeled placeholder) completes
// inline at precondition trigger.
//
// Fault decisions are made here, at issue time, on the issuing goroutine,
// by the machine's realm.FaultInjector: the per-node launch counter gives
// each launch a logical position, and the plan decides crash and
// straggler there. While one agent issues each node's launches (the
// steady state — the engine binds one shard per node until a failover
// doubles shards up), the sequence is deterministic, so the same seed
// crashes the same node at the same launch on every run and on the DES.
func (m *Machine) LaunchOn(node int, pre realm.Event, dur realm.Time, body func()) realm.Event {
	var delay time.Duration
	if m.faults != nil {
		delay = time.Duration(m.faults.Launch(node, dur) - dur) // a straggler's extra time
	}
	done := m.newEvent(evTask)
	m.OnTrigger(pre, func() {
		if m.nodeDown(node) {
			return // the node crashed: the work is lost, done never fires
		}
		atomic.AddInt64(&m.tasksRun, 1)
		if body == nil && delay == 0 {
			atomic.AddInt64(&m.inline, 1)
			m.Trigger(done)
			return
		}
		m.dispatch(&workItem{kind: itemTask, node: node, node2: -1, dur: dur, body: body, done: done}, delay)
	})
	return done
}

// CopyBytes implements realm.Exec: the body performs the real data
// movement (a shared-memory store-to-store copy); the byte count only
// feeds the traffic counters.
//
// Like LaunchOn, fault decisions are made at issue time, by the
// machine's realm.FaultInjector: an endpoint's copy counter may name a
// crash point (the copy is then lost), and the source node's remote-copy
// counter decides a duplicate, which pays the wire twice, and drops, each
// of which pays the wire again and delays delivery by an exponentially
// backed-off retransmit timeout.
func (m *Machine) CopyBytes(src, dst int, bytes int64, pre realm.Event, body func()) realm.Event {
	var extraMsgs int64
	var delay time.Duration
	if m.faults != nil {
		dup, drops := m.faults.Copy(src, dst)
		if dup {
			extraMsgs++
		}
		for k := 0; k < drops; k++ {
			extraMsgs++
			delay += time.Duration(m.faults.RetransmitTimeout()) << k
		}
	}
	done := m.newEvent(evCopy)
	m.OnTrigger(pre, func() {
		if m.nodeDown(src) || m.nodeDown(dst) {
			return // either endpoint crashed: the transfer is lost
		}
		if src == dst {
			atomic.AddInt64(&m.localCopies, 1)
		} else {
			atomic.AddInt64(&m.messages, 1+extraMsgs)
			atomic.AddInt64(&m.bytesSent, bytes*(1+extraMsgs))
		}
		if body == nil && delay == 0 {
			atomic.AddInt64(&m.inline, 1)
			m.Trigger(done)
			return
		}
		m.dispatch(&workItem{kind: itemCopy, node: dst, node2: src, bytes: bytes, body: body, done: done}, delay)
	})
	return done
}

// Drive implements realm.Exec: start the worker pool, which finds the work
// made ready before the run already queued, and the agents spawned before
// it, then wait for the population of agents and work items to drain. The counting discipline
// makes the wait sound: any event that will ever trigger is owed to an
// agent or a dispatched (delayed, queued or executing) work item, and
// items are counted synchronously inside their precondition's trigger
// (while the triggering goroutine is still counted), so the count never
// dips to zero with work outstanding. The same discipline makes a
// deadlock exact: when every agent is blocked and no item is in flight,
// nothing can fire again, and the run fails with a realm.DeadlockError
// at once. The pool is stopped only after the wait returns, when every
// deque is provably empty.
func (m *Machine) Drive() (realm.Time, error) {
	m.qmu.Lock()
	if m.driving {
		m.qmu.Unlock()
		return m.Now(), fmt.Errorf("native: Drive is not reentrant")
	}
	m.driving = true
	spawned := m.spawned
	m.spawned = nil
	m.qmu.Unlock()
	m.startWorkers()
	for _, run := range spawned {
		go run()
	}
	m.qmu.Lock()
	for m.agents > 0 || m.inflight > 0 {
		m.dcond.Wait()
	}
	m.stop = true
	err := m.err
	m.qmu.Unlock()
	m.wcond.Broadcast()
	m.workers.Wait()
	return m.Now(), err
}

// abortPanic unwinds an agent whose machine has failed; capturePanic
// swallows it without recording.
type abortPanic struct{}

// fail records the first error and releases every agent blocked in
// WaitEvent, so a panicking kernel drains the machine instead of wedging
// Drive on events that will never fire.
func (m *Machine) fail(err error) {
	m.qmu.Lock()
	if m.err == nil {
		m.err = err
		close(m.failCh)
	}
	m.qmu.Unlock()
}

func (m *Machine) failed() bool {
	select {
	case <-m.failCh:
		return true
	default:
		return false
	}
}

func (m *Machine) capturePanic(what string) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(abortPanic); ok {
		return
	}
	if realm.IsThreadKilled(r) {
		return // a killed agent retiring, not an error
	}
	m.fail(fmt.Errorf("native: %s panicked: %v", what, r))
}

// agent is a native control agent: a real goroutine that blocks on
// channels instead of yielding to a scheduler.
type agent struct {
	m    *Machine
	name string
	node int
	kill chan struct{} // closed by killLocked; checked at scheduling points

	// Guarded by m.qmu.
	killed bool
	done   bool
	parked realm.Event // the unfired event the agent is blocked on; NoEvent when it is not
}

var _ realm.Agent = (*agent)(nil)

// Name implements realm.Agent.
func (a *agent) Name() string { return a.name }

// Now implements realm.Agent (wall-clock).
func (a *agent) Now() realm.Time { return a.m.Now() }

// checkUnwind is the agent's scheduling-point check: a killed agent
// unwinds with the shared kill sentinel (so engine-level recovers
// recognize it exactly as they do a DES thread kill), and an agent of a
// failed machine unwinds with the abort sentinel.
func (a *agent) checkUnwind() {
	select {
	case <-a.kill:
		panic(realm.KillSentinel(a.name))
	default:
	}
	if a.m.failed() {
		panic(abortPanic{})
	}
}

// WaitEvent implements realm.Agent: block until e fires, or unwind if the
// agent is killed or the machine fails first.
func (a *agent) WaitEvent(e realm.Event) {
	a.checkUnwind()
	if a.m.Triggered(e) {
		return
	}
	ch := make(chan struct{})
	if !a.m.park(a, e, ch) {
		return
	}
	select {
	case <-ch:
		// A kill that raced the wake still wins: unwind before issuing
		// more work on a dead node.
		a.checkUnwind()
	case <-a.m.failCh:
		panic(abortPanic{})
	case <-a.kill:
		panic(realm.KillSentinel(a.name))
	}
}

// Elapse implements realm.Agent as a no-op: on real cores the agent's
// actual control work is its cost; there is no modeled time to charge.
func (a *agent) Elapse(realm.Time) {}

// Sleep implements realm.Agent as a real wall-clock sleep: the recovery
// layer's exponential restart backoff is genuine elapsed time here. A
// killed agent or a failed machine interrupts the sleep.
func (a *agent) Sleep(d realm.Time) {
	a.checkUnwind()
	if d <= 0 {
		return
	}
	t := time.NewTimer(time.Duration(d))
	defer t.Stop()
	select {
	case <-t.C:
	case <-a.m.failCh:
		panic(abortPanic{})
	case <-a.kill:
		panic(realm.KillSentinel(a.name))
	}
}

// Barrier implements realm.Exec: the last arrival fires done on its own
// goroutine, which gives waiters the usual happens-before edge. The done
// event is tagged so a DeadlockError names the barrier.
func (m *Machine) Barrier(n int) realm.BarrierOp {
	return realm.NewBarrier(m, n, m.newEvent(evBarrier), m.Trigger)
}

// Collective implements realm.Exec: contributions fold in participant-index
// order, so the result is bitwise identical to the DES's no matter which
// order real cores arrive in.
func (m *Machine) Collective(n int, identity float64, fold func(acc, v float64) float64) realm.CollectiveOp {
	return realm.NewCollective(m, n, identity, fold, m.newEvent(evCollective), m.Trigger)
}
