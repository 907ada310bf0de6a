// Package realm is a deterministic discrete-event simulation (DES) of a
// distributed-memory machine, standing in for the Realm low-level runtime
// and the Piz Daint hardware of the paper's evaluation (see DESIGN.md §1
// for the substitution argument). It provides the primitives Legion-style
// runtimes are built from: processors with FIFO work queues, Legion-style
// deferred events, a network with per-message latency and per-link
// bandwidth serialization, phase barriers, point-to-point synchronization,
// dynamic collectives (§4.4), and cooperatively scheduled simulated threads
// for long-running control code.
//
// Everything advances a single virtual clock; the simulation is
// deterministic: events at equal times are processed in creation order, and
// at most one simulated thread runs at any moment.
package realm

import (
	"fmt"
	"math/bits"
	"sort"
)

// Time is virtual time in nanoseconds.
type Time int64

// Time constructors and accessors.
func Nanoseconds(n int64) Time       { return Time(n) }
func Microseconds(f float64) Time    { return Time(f * 1e3) }
func Milliseconds(f float64) Time    { return Time(f * 1e6) }
func SecondsT(f float64) Time        { return Time(f * 1e9) }
func (t Time) Seconds() float64      { return float64(t) / 1e9 }
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Event is a handle on a one-shot condition, in the style of Realm events:
// it is either not yet triggered or triggered, and consumers register
// continuations. The zero Event (NoEvent) is permanently triggered.
type Event int32

// NoEvent is the already-triggered event used for operations with no
// preconditions.
const NoEvent Event = 0

// Config describes the simulated machine.
type Config struct {
	Nodes        int     // node count
	CoresPerNode int     // processors per node
	NetLatency   Time    // end-to-end latency per remote message
	NetBandwidth float64 // bytes per nanosecond per link
	LocalLatency Time    // latency of a node-local copy
	LocalBW      float64 // bytes per nanosecond for node-local copies
	HopLatency   Time    // per-tree-level latency of barriers/collectives
}

// Validate reports whether the configuration describes a usable machine.
// Non-positive bandwidths or negative latencies would silently produce
// absurd virtual times (divisions by zero, time running backwards), so they
// are rejected up front.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("realm: config requires at least one node (got %d)", c.Nodes)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("realm: config requires at least one core per node (got %d)", c.CoresPerNode)
	case c.NetLatency < 0:
		return fmt.Errorf("realm: negative NetLatency %d", c.NetLatency)
	case c.LocalLatency < 0:
		return fmt.Errorf("realm: negative LocalLatency %d", c.LocalLatency)
	case c.HopLatency < 0:
		return fmt.Errorf("realm: negative HopLatency %d", c.HopLatency)
	case !(c.NetBandwidth > 0):
		return fmt.Errorf("realm: NetBandwidth must be positive (got %v)", c.NetBandwidth)
	case !(c.LocalBW > 0):
		return fmt.Errorf("realm: LocalBW must be positive (got %v)", c.LocalBW)
	}
	return nil
}

// DefaultConfig returns machine parameters loosely calibrated to a Cray
// XC-class system: ~1.5 us network latency, ~10 GB/s per-link bandwidth,
// 12 cores per node.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:        nodes,
		CoresPerNode: 12,
		NetLatency:   Microseconds(1.5),
		NetBandwidth: 10.0, // 10 bytes/ns = 10 GB/s
		LocalLatency: Microseconds(0.1),
		LocalBW:      50.0,
		HopLatency:   Microseconds(1.0),
	}
}

// Stats accumulates machine-wide counters during a run.
type Stats struct {
	Messages    int64 // remote copies issued
	BytesSent   int64 // remote bytes moved
	LocalCopies int64
	TasksRun    int64
	Events      int64 // events processed by the scheduler

	// TraceShips/TraceShipBytes count the captured traces the SPMD
	// executor shipped to restarted shards during failover recovery; the
	// payload bytes also count toward Messages/BytesSent like any other
	// transfer. AggGroups counts the coalesced transfers it issued with at
	// least two member pairs, and AggSavedMessages the remote messages
	// those groups avoided (members-1 per remote group), counted at issue
	// time. The executor fills all four (spmd.Result.Stats); a machine
	// leaves them zero.
	TraceShips       int64
	TraceShipBytes   int64
	AggGroups        int64
	AggSavedMessages int64

	// WallNanos is real elapsed wall-clock time in nanoseconds, reported
	// only by backends that execute on real cores (always zero on the DES,
	// whose clock is virtual).
	WallNanos int64
}

// Sim is the simulator: the event queue, virtual clock, machine state, and
// statistics.
type Sim struct {
	cfg    Config
	policy TimePolicy
	now    Time
	queue  eventQueue
	nodes  []*node
	stats  Stats
	events EventTable

	running     bool
	tracer      *Tracer
	liveThreads map[*Thread]bool
	threadSeq   int64 // spawn counter, gives threads a deterministic order

	// Fault-injection state (nil faults = fault-free run): the installed
	// plan's injector (fault.go) and the node crashes it caused, in time
	// order.
	faults   *FaultInjector
	crashLog []NodeCrash

	// mergerPool recycles merger states (and their bound callbacks) once
	// they fire; every task launch merges its preconditions, so steady-state
	// loops would otherwise allocate a merger per launch per iteration.
	// deferPool does the same for the operations waiting on a precondition
	// (proc.go's deferred).
	mergerPool []*merger
	deferPool  []*deferred
}

type queued struct {
	at Time
	fn func()
	// fn == nil marks a body-less work-item completion: at time at, unless
	// failNode has crashed, trigger ev. The common case by far (modeled
	// tasks, Elapse, data movement without an attached body), encoded in
	// plain fields so it costs no closure allocation.
	ev       Event
	next     int32 // slab index of the item queued behind this one; 0 = none
	failNode *node
}

// eventQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin, Tarjan
// 1990). last is the time of the latest pop and no push is earlier (enqueue
// clamps to the clock, which is last). Bucket 0 holds the items due at last;
// bucket b > 0 those whose highest bit differing from last is bit b-1, so
// every item of a bucket is later than every item of a lower one. When
// bucket 0 runs dry, last moves to the earliest time in the lowest non-empty
// bucket and that bucket alone is dealt out again, each item into a lower
// bucket than it left.
//
// Pop order is (time, push order), kept by position, with no sequence
// number to compare: equal times differ from last in the same bit, so they
// always share a bucket; a bucket is a FIFO that pushes join at the tail;
// and a bucket is dealt out head to tail into buckets that are empty, so
// push order survives every move. Items due at the current instant (every
// thread wake-up) go to bucket 0: linked, popped, never moved.
//
// The buckets are lists threaded through one slab whose vacated slots are
// reused, so the queue holds memory for its peak occupancy and a move
// rewrites one index, not an item. Slot 0 is the nil link.
type eventQueue struct {
	last       Time
	slab       []queued
	free       int32  // head of the vacated-slot list
	occupied   uint64 // bit b-1 set iff bucket b (1..64) is non-empty
	head, tail [65]int32
	earliest   [65]Time // the earliest time in each non-empty bucket
}

// link appends slot i to the bucket its time belongs in.
func (q *eventQueue) link(i int32) {
	at := q.slab[i].at
	b := bits.Len64(uint64(at ^ q.last))
	if t := q.tail[b]; t == 0 {
		q.head[b], q.earliest[b] = i, at
		q.occupied |= 1 << 63 >> uint(64-b) // nothing for bucket 0
	} else {
		q.slab[t].next = i
		if at < q.earliest[b] {
			q.earliest[b] = at
		}
	}
	q.tail[b] = i
}

func (q *eventQueue) push(it queued) {
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, queued{})
	}
	it.next = 0
	q.slab[i] = it
	q.link(i)
}

func (q *eventQueue) empty() bool { return q.head[0] == 0 && q.occupied == 0 }

// pop removes the earliest item, the first pushed among equals. The queue
// must not be empty.
func (q *eventQueue) pop() queued {
	if q.head[0] == 0 {
		b := bits.TrailingZeros64(q.occupied) + 1
		q.occupied &= q.occupied - 1
		i := q.head[b]
		q.head[b], q.tail[b] = 0, 0
		q.last = q.earliest[b]
		for i != 0 {
			next := q.slab[i].next
			q.slab[i].next = 0
			q.link(i)
			i = next
		}
	}
	i := q.head[0]
	it := q.slab[i]
	if q.head[0] = it.next; it.next == 0 {
		q.tail[0] = 0
	}
	q.slab[i] = queued{next: q.free} // release the closure
	q.free = i
	return it
}

// NewSim builds a simulator for the given machine, rejecting configurations
// that would produce nonsensical times (see Config.Validate).
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, policy: ModeledTime{Cfg: cfg}, liveThreads: map[*Thread]bool{}}
	// Pre-size the queue: starting from a real capacity avoids the first
	// dozen grow-and-copy cycles of append. Slot 0 is the nil link.
	s.queue.slab = make([]queued, 1, 1024)
	s.nodes = make([]*node, cfg.Nodes)
	failEvs := s.events.Reserve(cfg.Nodes)
	for i := range s.nodes {
		n := &node{sim: s, id: i, failEv: failEvs + Event(i)}
		n.procs = make([]*proc, cfg.CoresPerNode)
		for j := range n.procs {
			n.procs[j] = &proc{node: n, id: j}
		}
		s.nodes[i] = n
	}
	return s, nil
}

// MustNewSim is NewSim for configurations known statically valid (tests,
// examples); it panics on a bad Config.
func MustNewSim(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the machine configuration.
func (s *Sim) Config() Config { return s.cfg }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Stats returns a copy of the counters accumulated so far.
func (s *Sim) Stats() Stats { return s.stats }

// Nodes returns the node count.
func (s *Sim) Nodes() int { return len(s.nodes) }

// enqueue clamps it to now, the time of the latest pop, which is what keeps
// the queue monotone, and queues it.
func (s *Sim) enqueue(it queued) {
	if it.at < s.now {
		it.at = s.now
	}
	s.queue.push(it)
}

// at schedules fn at absolute virtual time t (>= now).
func (s *Sim) at(t Time, fn func()) { s.enqueue(queued{at: t, fn: fn}) }

// atDone schedules the completion of a body-less work item: at time t,
// unless n (when non-nil) has failed, ev triggers. Semantically identical
// to at(t, func() { ... }) but with the closure replaced by plain queue
// fields — completions are the most common queue entry in a simulation,
// and this keeps the steady-state hot path allocation-free.
func (s *Sim) atDone(t Time, n *node, ev Event) { s.enqueue(queued{at: t, ev: ev, failNode: n}) }

// After schedules fn d nanoseconds from now.
func (s *Sim) After(d Time, fn func()) { s.at(s.now+d, fn) }

// NewUserEvent creates an untriggered event.
func (s *Sim) NewUserEvent() Event { return s.events.Reserve(1) }

// ReserveEvents creates n untriggered events with contiguous handles and
// returns the first; the block is first, first+1, ..., first+n-1. This is
// the bulk event-graph injection API used by trace replay: a replayed
// iteration's whole event population is carved out of one reservation, so
// positions within the trace map to handles by plain arithmetic instead of
// per-event table appends and bookkeeping. Reserving zero events returns
// NoEvent.
func (s *Sim) ReserveEvents(n int) Event {
	if n <= 0 {
		return NoEvent
	}
	return s.events.Reserve(n)
}

// Trigger fires a user event; continuations run immediately (at the current
// virtual time) in registration order. Triggering twice panics: event
// handles are one-shot.
func (s *Sim) Trigger(e Event) {
	if e == NoEvent {
		panic("realm: cannot trigger NoEvent")
	}
	first, rest, ok := s.events.Fire(e)
	if !ok {
		panic(fmt.Sprintf("realm: event %d triggered twice", e))
	}
	if first == nil {
		return
	}
	first()
	for rest != 0 {
		s.events.Next(&rest)()
	}
}

// TriggerAfter implements Exec: e triggers once pre has, through a pooled
// link record rather than a closure.
func (s *Sim) TriggerAfter(e, pre Event) {
	if s.Triggered(pre) {
		s.Trigger(e)
		return
	}
	s.await(pre, deferred{op: opLink, done: e})
}

// Triggered reports whether e has fired.
func (s *Sim) Triggered(e Event) bool { return s.events.Triggered(e) }

// OnTrigger runs fn when e fires (immediately if it already has).
func (s *Sim) OnTrigger(e Event, fn func()) {
	if !s.events.Await(e, fn) {
		fn()
	}
}

// merger is the counter state of one Merge: a single arrival callback
// shared by all pending inputs, instead of one captured closure per input.
type merger struct {
	s         *Sim
	remaining int
	out       Event
	cb        func() // bound arrive, created once per merger lifetime
}

func (m *merger) arrive() {
	m.remaining--
	if m.remaining == 0 {
		out := m.out
		// Recycle before triggering: no further arrivals can reference m
		// (exactly `remaining` registrations were made), and a continuation
		// of out may well call Merge again.
		m.s.mergerPool = append(m.s.mergerPool, m)
		m.s.Trigger(out)
	}
}

// Merge returns an event that triggers once all inputs have triggered
// (Realm's event merger). The inputs slice is not retained, so callers may
// reuse scratch buffers across calls.
func (s *Sim) Merge(evs ...Event) Event {
	pending := 0
	for _, e := range evs {
		if !s.Triggered(e) {
			pending++
		}
	}
	if pending == 0 {
		return NoEvent
	}
	out := s.NewUserEvent()
	var m *merger
	if n := len(s.mergerPool); n > 0 {
		m = s.mergerPool[n-1]
		s.mergerPool = s.mergerPool[:n-1]
	} else {
		m = &merger{s: s}
		m.cb = m.arrive
	}
	m.remaining, m.out = pending, out
	for _, e := range evs {
		s.events.Await(e, m.cb)
	}
	return out
}

// BlockedThread describes one stuck thread or agent in a DeadlockError:
// its diagnostic name, the event it is waiting on (NoEvent if it is
// blocked for another reason, e.g. mid-handshake), and the primitive that
// owns that event ("barrier", "collective", "task", "copy", "sync",
// "merge", "user", "node-fail") where the backend labels events — the
// native backend does, the DES leaves it empty.
type BlockedThread struct {
	Name      string
	Waiting   Event
	Primitive string
}

// DeadlockError is returned by Drive (Run on the DES) when every thread
// still alive is blocked and nothing pending can ever trigger the events
// they wait on.
type DeadlockError struct {
	Now     Time
	Blocked []BlockedThread
}

func (e *DeadlockError) Error() string {
	var b []byte
	b = fmt.Appendf(b, "realm: deadlock at t=%d — no events pending but %d threads are blocked:", e.Now, len(e.Blocked))
	for _, t := range e.Blocked {
		switch {
		case t.Waiting != NoEvent && t.Primitive != "":
			b = fmt.Appendf(b, " %s(waiting on %s event %d)", t.Name, t.Primitive, t.Waiting)
		case t.Waiting != NoEvent:
			b = fmt.Appendf(b, " %s(waiting on event %d)", t.Name, t.Waiting)
		default:
			b = fmt.Appendf(b, " %s", t.Name)
		}
	}
	return string(b)
}

// Run processes events until none remain queued and all threads have
// finished, returning the final virtual time. If threads are still blocked
// when the queue drains, the error is a *DeadlockError naming them and the
// events they wait on.
func (s *Sim) Run() (Time, error) {
	if s.running {
		return s.now, fmt.Errorf("realm: Run is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	for !s.queue.empty() {
		item := s.queue.pop()
		s.now = item.at
		s.stats.Events++
		if item.fn != nil {
			item.fn()
		} else if item.failNode == nil || !item.failNode.failed {
			s.Trigger(item.ev)
		}
	}
	if len(s.liveThreads) > 0 {
		blocked := make([]*Thread, 0, len(s.liveThreads))
		for t := range s.liveThreads {
			blocked = append(blocked, t)
		}
		sort.Slice(blocked, func(i, j int) bool { return blocked[i].id < blocked[j].id })
		derr := &DeadlockError{Now: s.now}
		for _, t := range blocked {
			derr.Blocked = append(derr.Blocked, BlockedThread{Name: t.name, Waiting: t.blockedOn})
		}
		// Nothing can resume these threads: unwind them so their
		// coroutines do not outlive the run.
		for _, t := range blocked {
			t.stop() // the parked yield returns false: the kill sentinel
			t.retire()
		}
		return s.now, derr
	}
	return s.now, nil
}

// MustRun is Run for simulations known to terminate cleanly (tests,
// examples); it panics on error.
func (s *Sim) MustRun() Time {
	t, err := s.Run()
	if err != nil {
		panic(err)
	}
	return t
}

// CollectiveLatency returns the modeled latency of an n-participant
// tree-structured collective operation, as charged by the time policy.
func (s *Sim) CollectiveLatency(n int) Time {
	return s.policy.CollectiveLatency(n)
}
