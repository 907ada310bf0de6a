// Work scheduler for the native machine: a fixed pool of worker
// goroutines, procs per node, the one path every launch and copy body runs
// on — including work made ready before Drive, which waits in its deque
// until Drive starts the pool.
//
// Placement is affinity-first: LaunchOn(node)/CopyBytes(..., dst) enqueue
// onto the target node's deque, shared by that node's workers, so a node's
// launches run on that node's workers in the common case. A deque is a
// LIFO slot plus a FIFO overflow queue (Tokio-style): a new item lands in
// the slot, displacing the previous occupant to the queue tail, so the
// most recently produced item — the one whose inputs are still cache-warm
// — runs next. An idle worker takes its own node's slot, then its FIFO,
// and only crosses nodes when its node is dry, visiting the other nodes
// round-robin and taking each one's oldest FIFO item before its slot. The
// deques sit under the machine's qmu beside the population they feed:
// items here are kernel-sized (microseconds and up), so a scan under one
// lock is far cheaper than a goroutine spawn per item would be, and it
// makes the park/wake protocol trivially lost-wakeup free.
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

// deque is one node's ready queue: the LIFO slot holds the newest item,
// fifo the overflow in age order.
type deque struct {
	slot *workItem
	fifo []*workItem
}

// popFIFO takes the oldest overflow item, or nil.
func (d *deque) popFIFO() *workItem {
	if len(d.fifo) == 0 {
		return nil
	}
	it := d.fifo[0]
	d.fifo[0] = nil
	d.fifo = d.fifo[1:]
	if len(d.fifo) == 0 {
		d.fifo = nil // let append start a fresh backing array
	}
	return it
}

// popSlot takes the slot's item, or nil.
func (d *deque) popSlot() *workItem {
	it := d.slot
	d.slot = nil
	return it
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

// startWorkers starts the pool's procs workers per node.
func (m *Machine) startWorkers() {
	procs := m.Procs()
	for n := range m.qs {
		for p := 0; p < procs; p++ {
			m.workers.Add(1)
			//detlint:ignore workers drain an order-free ready set; every cross-item order that matters is fixed by the event graph
			go m.worker(n)
		}
	}
}

// enqueue queues an item on its node's deque and wakes one parked worker.
func (m *Machine) enqueue(it *workItem) {
	m.qmu.Lock()
	m.enqueueLocked(it)
	m.qmu.Unlock()
	m.wcond.Signal()
}

func (m *Machine) enqueueLocked(it *workItem) {
	d := &m.qs[it.node]
	if d.slot != nil {
		d.fifo = append(d.fifo, d.slot)
	}
	d.slot = it
}

// worker is one pool goroutine serving node's deque.
func (m *Machine) worker(node int) {
	defer m.workers.Done()
	for {
		it, stolen := m.take(node)
		if it == nil {
			return
		}
		atomic.AddInt64(&m.dispatches, 1)
		if stolen {
			atomic.AddInt64(&m.steals, 1)
		}
		m.runItem(it)
	}
}

// take blocks until an item is available — the node's own slot, then its
// FIFO, then the other nodes', each FIFO before its slot, reporting such a
// cross-node take as stolen — or the pool stops (nil).
func (m *Machine) take(node int) (*workItem, bool) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	for {
		own := &m.qs[node]
		if it := own.popSlot(); it != nil {
			return it, false
		}
		if it := own.popFIFO(); it != nil {
			return it, false
		}
		for off := 1; off < len(m.qs); off++ {
			d := &m.qs[(node+off)%len(m.qs)]
			if it := d.popFIFO(); it != nil {
				return it, true
			}
			if it := d.popSlot(); it != nil {
				return it, true
			}
		}
		if m.stop {
			return nil, false
		}
		m.wcond.Wait()
	}
}

// SchedStats is the scheduler's observability snapshot.
type SchedStats struct {
	Workers           int   // pool size (nodes × procs); 0 before Drive
	Dispatches        int64 // items executed by pool workers
	Steals            int64 // items a worker took from another node's deque
	InlineCompletions int64 // launches/copies completed inline, no queue hop
	QueueDepths       []int // current queued items per node (nil before Drive)
}

// SchedStats returns the scheduler counters and current queue depths.
func (m *Machine) SchedStats() SchedStats {
	st := SchedStats{
		Dispatches:        atomic.LoadInt64(&m.dispatches),
		Steals:            atomic.LoadInt64(&m.steals),
		InlineCompletions: atomic.LoadInt64(&m.inline),
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.driving {
		st.Workers = len(m.qs) * m.Procs()
		st.QueueDepths = make([]int, len(m.qs))
		for n, d := range m.qs {
			st.QueueDepths[n] = len(d.fifo)
			if d.slot != nil {
				st.QueueDepths[n]++
			}
		}
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

// dispatch routes one ready work item onto its node's deque, after its
// injected delay (stragglers, retransmits) when it has one; the delay
// rides a timer, so it never occupies a worker. The item is counted in
// flight from here until runItem finishes it. The deques exist from
// NewMachine, so an item made ready before Drive is queued here like any
// other and waits for Drive to start the pool.
func (m *Machine) dispatch(it *workItem, delay time.Duration) {
	m.qmu.Lock()
	m.inflight++
	if delay > 0 {
		m.qmu.Unlock()
		time.AfterFunc(delay, func() { m.enqueue(it) })
		return
	}
	m.enqueueLocked(it)
	m.qmu.Unlock()
	m.wcond.Signal()
}

// runItem executes one work item and retires its accounting. An item
// whose node crashed while it was queued is dropped: lost work, the done
// event never fires — the same rule applied at trigger time.
func (m *Machine) runItem(it *workItem) {
	defer m.retire()
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

// retire drops a finished item from the population.
func (m *Machine) retire() {
	m.qmu.Lock()
	m.inflight--
	m.settleUnlock()
}
