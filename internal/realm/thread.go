//go:build go1.23

package realm

import "iter"

// Thread is a cooperatively scheduled simulated thread of control: the
// vehicle for long-running control logic (the implicit program's main task,
// a CR shard's control loop, an MPI rank). A thread runs real Go code as a
// runtime coroutine (iter.Pull): Sim.Run resumes it with next, it hands
// control straight back with yield, and nothing else ever resumes it, so at
// most one thread (or event continuation) executes at a time and the
// simulation stays deterministic and data-race free.
//
// A thread interacts with virtual time through Elapse (charge busy time on
// its processor) and WaitEvent (sleep until an event fires).
type Thread struct {
	sim       *Sim
	proc      *proc
	name      string
	id        int64 // spawn order, used for deterministic iteration
	next      func() (struct{}, bool)
	stop      func()
	yieldFn   func(struct{}) bool
	killed    bool  // KillAgent was called; unwind at the next scheduling point
	dead      bool  // coroutine has finished (normally or by kill)
	blockedOn Event // event a WaitEvent is parked on, for deadlock reports
	// runFn/wakeFn are bound once at spawn so the WaitEvent/wake round trip
	// — taken on every Elapse of every control thread — allocates nothing.
	runFn  func()
	wakeFn func()
}

// killPanic is the sentinel a killed thread unwinds with. It must cross any
// user-level recover blocks, so code recovering inside an agent re-panics it
// (see IsThreadKilled and RunControl).
type killPanic struct{ name string }

// IsThreadKilled reports whether a recovered panic value is the thread-kill
// sentinel (of any backend). Code that recovers panics inside agents must
// re-panic such values so the backend can retire the agent.
func IsThreadKilled(r interface{}) bool {
	_, ok := r.(killPanic)
	return ok
}

// KillSentinel returns the panic value a killed agent unwinds with. Other
// backends (realm/native) panic with it from their own agents so the same
// IsThreadKilled check — and RunControl's recover, built on it — recognizes
// kills uniformly across backends.
func KillSentinel(name string) interface{} { return killPanic{name} }

// SpawnOn implements Exec: fn starts as a simulated thread bound to the
// node's proc-th processor, beginning at the current virtual time. SpawnOn
// may be called before Drive or from any running thread or event
// continuation.
func (s *Sim) SpawnOn(name string, node, proc int, fn func(Agent)) Agent {
	s.threadSeq++
	t := &Thread{sim: s, proc: s.nodes[node].procs[proc], name: name, id: s.threadSeq}
	t.runFn = t.run
	t.wakeFn = t.wake
	s.liveThreads[t] = true
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yieldFn = yield
		defer func() {
			if r := recover(); r != nil && !IsThreadKilled(r) {
				panic(r) // real bug: surfaces from next, inside Sim.Run
			}
		}()
		if !t.killed {
			fn(t)
		}
	})
	s.at(s.now, t.runFn)
	return t
}

// KillAgent implements Exec: the thread stops at the current virtual time,
// unwinding at its next scheduling point, and never runs again. Killing a
// finished or already-killed thread is a no-op. The thread's in-flight work
// items are unaffected (their completion events may still fire); only the
// control flow stops, as when a node loses the processor running it.
func (s *Sim) KillAgent(a Agent) {
	t, ok := a.(*Thread)
	if !ok || t.dead || t.killed {
		return
	}
	t.killed = true
	s.at(s.now, t.runFn)
}

// run transfers control to the thread until it yields.
func (t *Thread) run() {
	if t.dead {
		return // stale wake-up of a retired thread
	}
	if _, ok := t.next(); !ok {
		t.retire()
	}
}

// retire marks the thread finished once its coroutine has returned.
func (t *Thread) retire() {
	t.dead = true
	delete(t.sim.liveThreads, t)
}

// yield returns control to the scheduler and blocks until resumed.
func (t *Thread) yield() {
	if !t.yieldFn(struct{}{}) || t.killed {
		panic(killPanic{t.name})
	}
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.sim.now }

// WaitEvent blocks the thread until e triggers.
func (t *Thread) WaitEvent(e Event) {
	if t.sim.Triggered(e) {
		return
	}
	t.blockedOn = e
	t.sim.OnTrigger(e, t.wakeFn)
	t.yield()
	t.blockedOn = NoEvent
}

// wake schedules the thread to resume at the current virtual time. Killed
// threads are not woken: the kill has already scheduled their final
// unwinding resume, and a second handshake would wedge the scheduler.
func (t *Thread) wake() {
	if t.dead || t.killed {
		return
	}
	t.sim.at(t.sim.now, t.runFn)
}

// Elapse charges d of busy time on the thread's processor and advances the
// thread past it, serializing with any other work queued on the processor.
func (t *Thread) Elapse(d Time) {
	if d == 0 {
		return
	}
	t.WaitEvent(t.proc.launch(d))
}

// Sleep advances the thread by d without occupying the processor.
func (t *Thread) Sleep(d Time) {
	ev := t.sim.NewUserEvent()
	t.sim.After(d, func() { t.sim.Trigger(ev) })
	t.WaitEvent(ev)
}

// Barrier implements Exec: the barrier completes the modeled tree latency
// after its last arrival.
func (s *Sim) Barrier(n int) BarrierOp {
	return NewBarrier(s, n, s.NewUserEvent(), func(done Event) {
		s.atDone(s.now+s.CollectiveLatency(n), nil, done)
	})
}

// Collective implements Exec: the collective completes the modeled reduce
// and broadcast trees' latency after its last contribution.
func (s *Sim) Collective(n int, identity float64, fold func(acc, v float64) float64) CollectiveOp {
	return NewCollective(s, n, identity, fold, s.NewUserEvent(), func(done Event) {
		s.atDone(s.now+2*s.CollectiveLatency(n), nil, done)
	})
}
