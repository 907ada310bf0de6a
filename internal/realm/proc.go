package realm

// node is one simulated compute node: a set of processors sharing a memory
// and one network link (whose bandwidth serializes outgoing transfers).
type node struct {
	sim        *Sim
	id         int
	procs      []*proc
	linkFreeAt Time

	failed bool  // node has crashed; it runs nothing and drops all traffic
	failEv Event // fires when the node crashes
}

// proc is a single simulated processor executing work items one at a time
// in FIFO order of readiness.
type proc struct {
	node   *node
	id     int
	freeAt Time
}

// NodeFailed implements Exec.
func (s *Sim) NodeFailed(node int) bool { return s.nodes[node].failed }

// NodeFailEvent implements Exec: an event that fires when the node crashes
// (already triggered if it has). Recovery layers watch it to race
// completion events against failures.
func (s *Sim) NodeFailEvent(node int) Event { return s.nodes[node].failEv }

// launch occupies the processor for dur, serialized FIFO behind the work
// already on it, and returns the event that fires when it is done.
func (p *proc) launch(dur Time) Event {
	done := p.node.sim.NewUserEvent()
	p.execItem(dur, nil, done)
	return done
}

// deferred is an operation waiting on a precondition that has not fired:
// a work item, a transfer, or an event link. It is the pooled stand-in for
// the closure each would otherwise allocate per registration; run is bound
// once per record, as merger.cb and Thread.wakeFn are.
type deferred struct {
	s     *Sim
	op    uint8
	dup   bool  // opCopy: the payload crosses the wire twice
	drops uint8 // opCopy: lost attempts before one arrives
	done  Event // the operation's completion; opLink: the event to trigger
	src   *node // opLaunch: the node; opCopy: the sender
	dst   *node // opCopy
	dur   Time  // opLaunch
	bytes int64 // opCopy
	body  func()
	runFn func()
}

const (
	opLaunch = iota // Sim.LaunchOn: execAuto on src
	opCopy          // Sim.CopyBytes: execCopy from src to dst
	opLink          // Sim.TriggerAfter: trigger done
)

// await registers op to run when pre, which has not fired, does.
func (s *Sim) await(pre Event, op deferred) {
	var r *deferred
	if n := len(s.deferPool); n > 0 {
		r = s.deferPool[n-1]
		s.deferPool = s.deferPool[:n-1]
		op.runFn = r.runFn
	} else {
		r = new(deferred)
		op.runFn = r.run
	}
	op.s = s
	*r = op
	s.events.Await(pre, r.runFn)
}

// run performs the operation. The record is zeroed and back in the pool
// before the operation runs, which may well defer another.
func (r *deferred) run() {
	op, s := *r, r.s
	*r = deferred{runFn: r.runFn}
	s.deferPool = append(s.deferPool, r)
	switch op.op {
	case opLaunch:
		op.src.execAuto(op.dur, op.body, op.done)
	case opCopy:
		s.execCopy(op.src, op.dst, op.bytes, op.dup, int(op.drops), op.body, op.done)
	case opLink:
		s.Trigger(op.done)
	}
}

// execItem runs a work item whose precondition has triggered: occupy the
// processor for dur, then run body (if any) and fire done. Body-less items
// complete through the queue's field-encoded path instead of a closure.
func (p *proc) execItem(dur Time, body func(), done Event) {
	s := p.node.sim
	if p.node.failed {
		return // lost work: a crashed node never starts the item
	}
	dur = s.policy.TaskDuration(dur)
	start := p.freeAt
	if s.now > start {
		start = s.now
	}
	p.freeAt = start + dur
	s.stats.TasksRun++
	if s.tracer != nil && dur > 0 {
		s.tracer.task(p.node.id, p.id, start, start+dur)
	}
	if body == nil {
		s.atDone(p.freeAt, p.node, done)
		return
	}
	s.at(p.freeAt, func() {
		if p.node.failed {
			return // node crashed mid-item; completion never fires
		}
		body()
		s.Trigger(done)
	})
}

// LaunchOn implements Exec: once pre triggers, the item runs on whichever
// of the node's processors becomes free earliest (ties broken by processor
// index), the mapping strategy of a default mapper distributing a shard's
// tasks across the node's cores. Under a fault plan the issue is a fault
// point (FaultInjector.Launch): the node may fail-stop here, before the
// launch lands, so the launch itself is lost, or the launch may straggle.
func (s *Sim) LaunchOn(node int, pre Event, dur Time, body func()) Event {
	n := s.nodes[node]
	if s.faults != nil {
		dur = s.faults.Launch(node, dur)
	}
	done := s.NewUserEvent()
	if s.Triggered(pre) {
		n.execAuto(dur, body, done)
	} else {
		s.await(pre, deferred{op: opLaunch, src: n, dur: dur, body: body, done: done})
	}
	return done
}

// execAuto picks the earliest-free processor (ties broken by index) at the
// moment the item becomes ready and runs it there.
func (n *node) execAuto(dur Time, body func(), done Event) {
	if n.failed {
		return
	}
	best := n.procs[0]
	for _, p := range n.procs[1:] {
		if p.freeAt < best.freeAt {
			best = p
		}
	}
	best.execItem(dur, body, done)
}

// CopyBytes implements Exec as a modeled data transfer: after pre
// triggers, the transfer waits for the sender's link, pays latency plus
// size/bandwidth, then body runs at the destination and the returned event
// fires. Copies within a node pay the (cheaper) local latency and bandwidth
// and do not occupy the link. Under a fault plan the issue is a fault
// point (FaultInjector.Copy): an endpoint may fail-stop here, losing the
// copy, and a remote copy may be duplicated or dropped.
func (s *Sim) CopyBytes(src, dst int, bytes int64, pre Event, body func()) Event {
	from, to := s.nodes[src], s.nodes[dst]
	var dup bool
	var drops int
	if s.faults != nil {
		dup, drops = s.faults.Copy(src, dst)
	}
	done := s.NewUserEvent()
	if s.Triggered(pre) {
		s.execCopy(from, to, bytes, dup, drops, body, done)
	} else {
		s.await(pre, deferred{op: opCopy, src: from, dst: to, bytes: bytes, dup: dup, drops: uint8(drops), body: body, done: done})
	}
	return done
}

// execCopy performs a transfer whose precondition has triggered, charging
// the wire for the duplicate and the drops decided at its issue.
func (s *Sim) execCopy(src, dst *node, bytes int64, dup bool, drops int, body func(), done Event) {
	if src.failed || dst.failed {
		return // either endpoint crashed: the transfer is lost
	}
	var arrive Time
	if src == dst {
		arrive = s.now + s.policy.LocalCopy(bytes)
		s.stats.LocalCopies++
	} else {
		start := src.linkFreeAt
		if s.now > start {
			start = s.now
		}
		xfer := s.policy.RemoteTransfer(bytes)
		serialize := xfer
		var delay Time
		if dup {
			// The link carries the payload twice; the receiver keeps the
			// first arrival.
			serialize += xfer
			s.stats.Messages++
			s.stats.BytesSent += bytes
		}
		for ; drops > 0; drops-- {
			// Reliable transport: a dropped message is retransmitted after
			// a timeout, paying the wire again each attempt.
			delay += s.faults.RetransmitTimeout() + xfer
			serialize += xfer
			s.stats.Messages++
			s.stats.BytesSent += bytes
		}
		src.linkFreeAt = start + serialize
		arrive = start + xfer + s.policy.RemoteLatency() + delay
		s.stats.Messages++
		s.stats.BytesSent += bytes
		if s.tracer != nil {
			s.tracer.message(src.id, dst.id, bytes, start, arrive)
		}
	}
	if body == nil {
		s.atDone(arrive, dst, done)
		return
	}
	s.at(arrive, func() {
		if dst.failed {
			return // destination crashed in flight; delivery never happens
		}
		body()
		s.Trigger(done)
	})
}
