// Work scheduler for the native machine: a fixed pool of worker
// goroutines per (node, proc), the one path every launch and copy body
// runs on — including work made ready before Drive, which waits in the
// machine's pending list until the pool exists.
//
// Placement is affinity-first: LaunchOn(node)/CopyBytes(..., dst) enqueue
// onto one of the target node's per-proc deques (round-robin across the
// node's procs), so a node's launches run on that node's workers in the
// common case. Each deque is a LIFO slot plus a FIFO overflow queue
// (Tokio-style): a new item lands in the slot, displacing the previous
// occupant to the queue tail, so the most recently produced item — the
// one whose inputs are still cache-warm — runs next on the owning worker.
// An idle worker takes from its own deque first, then steals within its
// own node, and only crosses nodes when the whole node is dry; stealers
// prefer the FIFO end and leave the slot for the owner. One mutex + cond
// guards all deques: items here are kernel-sized (microseconds and up),
// so a scan under a single lock is far cheaper than a goroutine spawn
// per item would be, and it makes the park/wake protocol trivially
// lost-wakeup free.
//
// Lifecycle and drain: an item joins the machine's inflight count at
// dispatch (inside its precondition's trigger, while the triggering
// goroutine is still counted, so Drive's wait stays sound) and leaves it
// when a worker finishes it — queued-but-unstarted work therefore holds
// Drive and Quiesce open, and an idle-but-nonempty pool can never be
// misread as a deadlock. Items whose node crashed while they sat queued
// are dropped at dequeue (lost work, exactly as at trigger time); injected
// delays (stragglers, retransmits) ride a timer before enqueue instead of
// blocking a worker. Drive stops the workers only after the population
// drains, when every deque is provably empty.
package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/realm"
)

const (
	itemTask uint8 = iota
	itemCopy
)

var itemKindNames = [...]string{"task", "copy"}

// workItem is one launched task or copy body, queued for a worker.
type workItem struct {
	kind  uint8
	node  int        // execution node (the copy destination)
	node2 int        // copy source for crash re-checks, -1 for tasks
	dur   realm.Time // modeled duration, classes the recorder sample
	bytes int64
	body  func()
	done  realm.Event
}

// deque is one proc's queue: the LIFO slot holds the newest item, fifo
// the overflow in age order.
type deque struct {
	slot *workItem
	fifo []*workItem
}

type scheduler struct {
	m  *Machine
	mu sync.Mutex
	// cond wakes parked workers; guarded by mu along with everything below.
	cond    *sync.Cond
	qs      [][]deque // [node][proc]
	rr      []uint32  // per-node round-robin placement cursor
	queued  int       // total items across all deques
	stop    bool
	workers sync.WaitGroup
}

// defaultProcs is the per-node worker count when the caller sets none:
// an equal share of GOMAXPROCS across nodes, at least one.
func defaultProcs(nodes int) int {
	p := runtime.GOMAXPROCS(0) / nodes
	if p < 1 {
		p = 1
	}
	return p
}

// newScheduler builds the pool and starts its nodes×procs workers.
func newScheduler(m *Machine, nodes, procs int) *scheduler {
	s := &scheduler{m: m, qs: make([][]deque, nodes), rr: make([]uint32, nodes)}
	s.cond = sync.NewCond(&s.mu)
	for n := range s.qs {
		s.qs[n] = make([]deque, procs)
	}
	for n := 0; n < nodes; n++ {
		for p := 0; p < procs; p++ {
			s.workers.Add(1)
			//detlint:ignore workers drain an order-free ready set; every cross-item order that matters is fixed by the event graph
			go s.worker(n, p)
		}
	}
	return s
}

// enqueue queues an item on its target node, round-robin across the
// node's deques, and wakes one parked worker.
func (s *scheduler) enqueue(it *workItem) {
	s.mu.Lock()
	node := it.node
	d := &s.qs[node][int(s.rr[node])%len(s.qs[node])]
	s.rr[node]++
	if d.slot != nil {
		d.fifo = append(d.fifo, d.slot)
	}
	d.slot = it
	s.queued++
	s.mu.Unlock()
	s.cond.Signal()
}

// shutdown stops the workers and waits for them to exit. Drive calls it
// after the machine's population drains, so every deque is already empty.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	s.stop = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.workers.Wait()
}

// worker is one pool goroutine, bound to deque (node, proc).
func (s *scheduler) worker(node, proc int) {
	defer s.workers.Done()
	for {
		it, steal := s.take(node, proc)
		if it == nil {
			return
		}
		atomic.AddInt64(&s.m.dispatches, 1)
		switch steal {
		case stealLocal:
			atomic.AddInt64(&s.m.steals, 1)
			atomic.AddInt64(&s.m.localSteals, 1)
		case stealRemote:
			atomic.AddInt64(&s.m.steals, 1)
			atomic.AddInt64(&s.m.remoteSteals, 1)
		}
		s.m.runItem(it)
	}
}

type stealKind uint8

const (
	stealNone stealKind = iota
	stealLocal
	stealRemote
)

// take blocks until an item is available (own deque first, then the own
// node's siblings, then other nodes) or the pool stops (nil).
func (s *scheduler) take(node, proc int) (*workItem, stealKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queued > 0 {
			if it := s.takeOwn(node, proc); it != nil {
				return it, stealNone
			}
			if it := s.stealFromNode(node, proc); it != nil {
				return it, stealLocal
			}
			for off := 1; off < len(s.qs); off++ {
				if it := s.stealFromNode((node+off)%len(s.qs), -1); it != nil {
					return it, stealRemote
				}
			}
		}
		if s.stop {
			return nil, stealNone
		}
		s.cond.Wait()
	}
}

// takeOwn pops the worker's own deque: slot (newest, cache-warm) first,
// then the FIFO head.
func (s *scheduler) takeOwn(node, proc int) *workItem {
	d := &s.qs[node][proc]
	if it := d.slot; it != nil {
		d.slot = nil
		s.queued--
		return it
	}
	return s.popFIFO(d)
}

// stealFromNode scans a node's deques for work, skipping deque skip (the
// stealer's own). Stealers prefer the oldest FIFO item and take a slot
// only when no FIFO item exists anywhere on the node, leaving the
// cache-warm end to each owner.
func (s *scheduler) stealFromNode(node, skip int) *workItem {
	ds := s.qs[node]
	for p := range ds {
		if p == skip {
			continue
		}
		if it := s.popFIFO(&ds[p]); it != nil {
			return it
		}
	}
	for p := range ds {
		if p == skip {
			continue
		}
		if it := ds[p].slot; it != nil {
			ds[p].slot = nil
			s.queued--
			return it
		}
	}
	return nil
}

func (s *scheduler) popFIFO(d *deque) *workItem {
	if len(d.fifo) == 0 {
		return nil
	}
	it := d.fifo[0]
	d.fifo[0] = nil
	d.fifo = d.fifo[1:]
	if len(d.fifo) == 0 {
		d.fifo = nil // let append start a fresh backing array
	}
	s.queued--
	return it
}

// depths snapshots the per-node queued-item counts.
func (s *scheduler) depths() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.qs))
	for n, ds := range s.qs {
		for p := range ds {
			if ds[p].slot != nil {
				out[n]++
			}
			out[n] += len(ds[p].fifo)
		}
	}
	return out
}

// SchedStats is the scheduler's observability snapshot.
type SchedStats struct {
	Workers           int   // pool size (nodes × procs); 0 before Drive
	Dispatches        int64 // items executed by pool workers
	Steals            int64 // dispatches taken from a deque other than the enqueue target
	LocalSteals       int64 // steals within the enqueue node
	RemoteSteals      int64 // steals across nodes
	InlineCompletions int64 // launches/copies completed inline, no queue hop
	QueueDepths       []int // current queued items per node (nil before Drive)
}

// SchedStats returns the scheduler counters and current queue depths.
func (m *Machine) SchedStats() SchedStats {
	st := SchedStats{
		Dispatches:        atomic.LoadInt64(&m.dispatches),
		Steals:            atomic.LoadInt64(&m.steals),
		LocalSteals:       atomic.LoadInt64(&m.localSteals),
		RemoteSteals:      atomic.LoadInt64(&m.remoteSteals),
		InlineCompletions: atomic.LoadInt64(&m.inline),
	}
	if s := m.schedp.Load(); s != nil {
		st.Workers = len(s.qs) * len(s.qs[0])
		st.QueueDepths = s.depths()
	}
	return st
}

// SetProcs sets the per-node worker count (0 restores the default: an
// equal share of GOMAXPROCS). Must be called before Drive.
func (m *Machine) SetProcs(p int) {
	if p < 0 {
		p = 0
	}
	m.procs = p
}

// Procs reports the effective per-node worker count.
func (m *Machine) Procs() int {
	if m.procs > 0 {
		return m.procs
	}
	return defaultProcs(m.cfg.Nodes)
}

// SetTimeRecorder attaches a recorder (realm.MeasuredTime) that observes
// the wall-clock duration of every executed launch and copy body, so a
// fitted TimePolicy can be built from this run. Must be set before Drive.
func (m *Machine) SetTimeRecorder(rec realm.TimeRecorder) { m.recorder = rec }

// dispatch routes one ready work item onto the pool. The item is counted
// in flight from here until runItem finishes it. An item made ready before
// Drive waits in the pending list beside the agents spawned before it; the
// pool pointer is re-read under the lock Drive publishes it under, so an
// item racing Drive's start is either released by Drive or submitted
// here, never lost.
func (m *Machine) dispatch(it *workItem, delay time.Duration) {
	m.addInflight(1)
	s := m.schedp.Load()
	if s == nil {
		m.mu.Lock()
		if s = m.schedp.Load(); s == nil {
			m.pending = append(m.pending, func() { m.schedp.Load().submit(it, delay) })
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
	}
	s.submit(it, delay)
}

// submit enqueues an item, after its injected delay (stragglers,
// retransmits) when it has one; the delay rides a timer, so it never
// occupies a worker.
func (s *scheduler) submit(it *workItem, delay time.Duration) {
	if delay > 0 {
		time.AfterFunc(delay, func() { s.enqueue(it) })
	} else {
		s.enqueue(it)
	}
}

// runItem executes one work item and retires its accounting. An item
// whose node crashed while it was queued is dropped: lost work, the done
// event never fires — the same rule applied at trigger time.
func (m *Machine) runItem(it *workItem) {
	defer m.addInflight(-1)
	defer m.capturePanic(itemKindNames[it.kind])
	if m.nodeDown(it.node) || (it.node2 >= 0 && m.nodeDown(it.node2)) {
		return
	}
	if it.body != nil {
		if rec := m.recorder; rec != nil {
			start := time.Now()
			it.body()
			wall := time.Since(start).Nanoseconds()
			if it.kind == itemCopy {
				rec.ObserveCopy(it.bytes, wall)
			} else {
				rec.ObserveLaunch(it.dur, wall)
			}
			m.Trigger(it.done)
			return
		}
		it.body()
	}
	m.Trigger(it.done)
}
