package realm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file defines the backend-neutral execution interface: the machine
// operations the engines (internal/spmd, internal/rt), the MPI baselines
// (internal/baseline) and the benchmark harness are written against. The
// DES (*Sim) and the native
// goroutine backend (internal/realm/native.Machine) both implement Exec, so
// an engine runs identically on a simulated machine or on real cores — the
// event graph it builds is the same; only what "time" means differs.
//
// The interface is node-ID based (LaunchOn, CopyBytes): handles that are
// plain integers serialize into traces, survive failover remapping, and
// leave each backend free to represent a node however it likes.

// Exec is a machine that can run an engine: spawn control agents, launch
// work items, move bytes between nodes, order everything through one-shot
// events, and fail. Exactly the event semantics of the DES apply: events
// trigger once, continuations run synchronously at trigger, NoEvent is
// permanently triggered.
//
// *Sim implements Exec with virtual time charged by its TimePolicy;
// native.Machine implements it on real goroutines with wall-clock time.
// Both inject faults through one FaultInjector (fault.go). Every
// system the harness compares — both runtimes and the MPI baselines —
// drives a machine through this interface alone.
type Exec interface {
	// Backend names the implementation ("des", "native") for diagnostics
	// and capability errors.
	Backend() string
	// Config returns the machine description the backend was built from.
	Config() Config
	// Nodes returns the node count.
	Nodes() int
	// Now returns the backend's notion of current time: virtual nanoseconds
	// on the DES, wall-clock nanoseconds since construction on native.
	Now() Time
	// Stats returns a snapshot of the machine-wide counters.
	Stats() Stats

	// NewUserEvent creates an untriggered event.
	NewUserEvent() Event
	// ReserveEvents creates n untriggered events with contiguous handles
	// and returns the first (NoEvent when n <= 0).
	ReserveEvents(n int) Event
	// Trigger fires a user event; continuations run immediately in
	// registration order. Triggering twice panics.
	Trigger(e Event)
	// Triggered reports whether e has fired.
	Triggered(e Event) bool
	// OnTrigger runs fn when e fires (immediately if it already has).
	OnTrigger(e Event, fn func())
	// TriggerAfter triggers e once pre has fired (at once if it already
	// has), as a continuation registered on pre now (Realm's
	// UserEvent::trigger(wait_on)). Triggering e a second time panics.
	TriggerAfter(e, pre Event)
	// Merge returns an event that triggers once all inputs have triggered.
	// The inputs slice is not retained.
	Merge(evs ...Event) Event

	// SpawnOn starts fn as a long-running control agent bound to the given
	// node and processor.
	SpawnOn(name string, node, proc int, fn func(Agent)) Agent
	// LaunchOn schedules a work item on node: once pre triggers, the item
	// runs for dur (a modeled duration; native backends execute body's real
	// work instead), then body (if non-nil) runs and the returned event
	// fires.
	LaunchOn(node int, pre Event, dur Time, body func()) Event
	// CopyBytes moves bytes from node src to node dst — the one transfer
	// primitive, as a Realm copy is: every copy an engine issues (an
	// exchange pair, a coalesced group, a checkpoint, a shipped trace) is
	// one call. After pre triggers the transfer is performed (modeled wire
	// cost on the DES, a real shared-memory copy by body on native), body
	// runs at the destination, and the returned event fires.
	CopyBytes(src, dst int, bytes int64, pre Event, body func()) Event

	// Barrier creates a single-use phase barrier expecting n arrivals.
	Barrier(n int) BarrierOp
	// Collective creates a dynamic collective over n participants folding
	// contributed values in participant-index order.
	Collective(n int, identity float64, fold func(acc, v float64) float64) CollectiveOp

	// Drive runs the machine to completion — until every agent has finished
	// and no work items remain — and returns the final time. A run that
	// can never finish, because every remaining agent waits on an event
	// nothing outstanding can fire, returns a *DeadlockError naming them at
	// once, on every backend.
	Drive() (Time, error)

	// InjectFaults installs a fault plan before Drive (at most once).
	InjectFaults(fp FaultPlan) error
	// FaultStats returns the counters of faults injected so far.
	FaultStats() FaultStats
	// Crashes returns the node crashes that actually occurred. The DES
	// reports them in time order; the native backend sorts by node
	// (concurrent crashes have no total wall-clock order).
	Crashes() []NodeCrash

	// NodeFailed reports whether the node has fail-stopped.
	NodeFailed(node int) bool
	// NodeFailEvent returns the event that fires when (or fired because) the
	// node crashes. Safe to call from any agent.
	NodeFailEvent(node int) Event
	// KillAgent terminates a control agent at its next scheduling point, as
	// when the processor running it is lost. The agent unwinds with the
	// thread-kill sentinel (IsThreadKilled); its in-flight work items may
	// still complete. Killing a finished or already-killed agent is a no-op.
	KillAgent(a Agent)
	// Quiesce blocks the calling agent until every in-flight work item has
	// completed and every killed agent has finished unwinding. The recovery
	// layer calls it before restoring state so that zombie work from an
	// abandoned epoch cannot race the restore. A no-op on the DES, whose
	// scheduler never runs two things at once.
	Quiesce()
}

// FaultExec is Exec under the name it had while fault tolerance was an
// optional extension of it; kept for callers outside this module.
type FaultExec = Exec

// Agent is a long-running thread of control executing on a backend: the
// implicit program's main task, a CR shard's control loop. On the DES it is
// a cooperatively scheduled *Thread; on the native backend it is a real
// goroutine.
type Agent interface {
	// Name returns the agent's diagnostic name.
	Name() string
	// Now returns the backend's current time.
	Now() Time
	// WaitEvent blocks the agent until e triggers.
	WaitEvent(e Event)
	// Elapse charges d of busy time on the agent's processor (a no-op on
	// backends where time is real: the agent's actual work is its cost).
	Elapse(d Time)
	// Sleep advances the agent by d without occupying the processor (a
	// no-op on wall-clock backends).
	Sleep(d Time)
}

// BarrierOp is a single-use phase barrier: once the expected number of
// arrivals have registered, its completion event fires.
type BarrierOp interface {
	// Arrive registers an arrival once pre triggers.
	Arrive(pre Event)
	// Done returns the event that fires when the barrier completes.
	Done() Event
}

// CollectiveOp is a dynamic collective (§4.4): participants contribute
// scalar values, and once all are in they are folded in participant-index
// order — so the floating-point result is bitwise deterministic on every
// backend.
type CollectiveOp interface {
	// Contribute registers participant idx's value once pre triggers; value
	// is evaluated at that moment. Each participant contributes once.
	Contribute(idx int, pre Event, value func() float64)
	// Done returns the completion event.
	Done() Event
	// Result returns the values folded in index order; valid once Done has
	// triggered.
	Result() float64
}

// NewBarrier returns a single-use phase barrier on x expecting n arrivals,
// which may land concurrently. The last calls complete(done), which must
// trigger done: at once on the native machine, after the modeled tree
// latency on the DES.
func NewBarrier(x Exec, n int, done Event, complete func(Event)) BarrierOp {
	b := &barrier{x: x, done: done, complete: complete}
	b.remaining.Store(int32(n))
	b.arriveFn = b.arrive
	return b
}

type barrier struct {
	x         Exec
	remaining atomic.Int32
	done      Event
	complete  func(Event)
	arriveFn  func() // bound once, so an arrival registers without allocating
}

// Arrive implements BarrierOp.
func (b *barrier) Arrive(pre Event) { b.x.OnTrigger(pre, b.arriveFn) }

func (b *barrier) arrive() {
	if b.remaining.Add(-1) == 0 {
		b.complete(b.done)
	}
}

// Done implements BarrierOp.
func (b *barrier) Done() Event { return b.done }

// NewCollective returns a Legion-style dynamic collective (§4.4) on x over
// n participants. Contributions may land concurrently; they fold in
// participant-index order, so the result matches a sequential fold bitwise
// on every backend. The last calls complete(done), which must trigger done:
// at once on the native machine, after the modeled reduce and broadcast
// latency on the DES.
func NewCollective(x Exec, n int, identity float64, fold func(acc, v float64) float64, done Event, complete func(Event)) CollectiveOp {
	return &collective{
		x:        x,
		identity: identity,
		fold:     fold,
		done:     done,
		complete: complete,
		values:   make([]float64, n),
		present:  make([]bool, n),
	}
}

type collective struct {
	x        Exec
	identity float64
	fold     func(acc, v float64) float64
	done     Event
	complete func(Event)

	mu      sync.Mutex
	values  []float64
	present []bool
	arrived int
}

// Contribute implements CollectiveOp.
func (c *collective) Contribute(idx int, pre Event, value func() float64) {
	c.x.OnTrigger(pre, func() {
		v := value()
		c.mu.Lock()
		if c.present[idx] {
			c.mu.Unlock()
			panic("realm: duplicate collective contribution")
		}
		c.present[idx] = true
		c.values[idx] = v
		c.arrived++
		last := c.arrived == len(c.values)
		c.mu.Unlock()
		if last {
			c.complete(c.done)
		}
	})
}

// Done implements CollectiveOp.
func (c *collective) Done() Event { return c.done }

// Result implements CollectiveOp.
func (c *collective) Result() float64 {
	acc := c.identity
	for _, v := range c.values {
		acc = c.fold(acc, v)
	}
	return acc
}

// UnsupportedError reports an operation the selected backend does not
// implement (e.g. the MPI baselines, which run on the DES alone).
type UnsupportedError struct {
	Backend string // backend name, as reported by Exec.Backend
	Op      string // the unsupported operation
}

func (e *UnsupportedError) Error() string {
	return "realm: " + e.Op + " is not supported on the " + e.Backend + " backend"
}

// Interface conformance: the DES is an Exec, its threads are Agents, and
// its synchronization primitives implement the backend-neutral op types.
var (
	_ Exec         = (*Sim)(nil)
	_ Agent        = (*Thread)(nil)
	_ BarrierOp    = (*barrier)(nil)
	_ CollectiveOp = (*collective)(nil)
)

// Backend implements Exec.
func (s *Sim) Backend() string { return "des" }

// Drive implements Exec by running the event loop to completion.
func (s *Sim) Drive() (Time, error) { return s.Run() }

// Quiesce implements Exec as a no-op: the DES never runs two things at
// once, so an abandoned epoch's work cannot race a restore.
func (s *Sim) Quiesce() {}

// RunControl runs body as a program's control agent — named name, on node
// 0, processor 0 — and drives x to completion. who prefixes the errors: a
// panic in body, or in a work item the backend runs inside Drive, becomes
// an error instead of crashing the host, and a control agent killed with
// node 0 before body returns is an error of its own. Every control-driven
// engine (the implicit runtime, the SPMD executor) runs through it.
func RunControl(x Exec, who, name string, body func(Agent)) (Time, error) {
	var bodyErr error
	finished := false
	x.SpawnOn(name, 0, 0, func(a Agent) {
		defer func() {
			if r := recover(); r != nil {
				if IsThreadKilled(r) {
					panic(r) // node 0 crashed: let the backend retire the agent
				}
				bodyErr = fmt.Errorf("%s: %v", who, r)
			}
		}()
		body(a)
		finished = true
	})
	elapsed, err := func() (t Time, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%s: task execution panicked: %v", who, r)
			}
		}()
		return x.Drive()
	}()
	switch {
	case err != nil:
		return elapsed, err
	case bodyErr != nil:
		return elapsed, bodyErr
	case !finished:
		return elapsed, fmt.Errorf("%s: control thread was killed (node 0 crashed) before the program completed", who)
	}
	return elapsed, nil
}
