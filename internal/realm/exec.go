package realm

import "fmt"

// This file defines the backend-neutral execution interface: the subset of
// machine operations the engines (internal/spmd, internal/rt) and the
// benchmark harness are written against. The DES (*Sim) and the native
// goroutine backend (internal/realm/native.Machine) both implement Exec, so
// an engine runs identically on a simulated machine or on real cores — the
// event graph it builds is the same; only what "time" means differs.
//
// The interface is deliberately node-ID based (LaunchOn, CopyBytes) rather
// than object based (Node.LaunchAuto, Copy(*Node, *Node)): handles that are
// plain integers serialize into traces, survive failover remapping, and
// leave each backend free to represent a node however it likes.

// Exec is a machine that can run an engine: spawn control agents, launch
// work items, move bytes between nodes, and order everything through
// one-shot events. Exactly the event semantics of the DES apply: events
// trigger once, continuations run synchronously at trigger, NoEvent is
// permanently triggered.
//
// *Sim implements Exec with virtual time charged by its TimePolicy;
// native.Machine implements it on real goroutines with wall-clock time.
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
	// CopyBytes moves bytes from node src to node dst: after pre triggers
	// the transfer is performed (modeled wire cost on the DES, a real
	// shared-memory copy by body on native), body runs at the destination,
	// and the returned event fires.
	CopyBytes(src, dst int, bytes int64, pre Event, body func()) Event
	// CopyAgg moves the merged payload of a members-pair aggregation group
	// — several copy pairs toward one destination coalesced into a single
	// message — from node src to node dst once pre triggers; body performs
	// the member writes in capture order on backends that execute for real.
	// It is CopyBytes of the summed payload (one latency charge, one fault
	// draw, one dispatch; with one member, exactly CopyBytes) that also
	// keeps the aggregation counters: groups with at least two members count
	// toward Stats.AggGroups, and remote ones credit members-1 avoided
	// messages to Stats.AggSavedMessages.
	CopyAgg(src, dst int, bytes int64, members int, pre Event, body func()) Event

	// Barrier creates a single-use phase barrier expecting n arrivals.
	Barrier(n int) BarrierOp
	// Collective creates a dynamic collective over n participants folding
	// contributed values in participant-index order.
	Collective(n int, identity float64, fold func(acc, v float64) float64) CollectiveOp

	// Drive runs the machine to completion — until every agent has finished
	// and no work items remain — and returns the final time.
	Drive() (Time, error)
}

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

// FaultExec is the fault-tolerance extension of Exec: the operations the
// recovery layer (internal/spmd's checkpoint/restart) needs beyond plain
// execution. Both backends implement it — the DES with virtual-time fault
// schedules, the native machine with seeded logical-point injection over
// real goroutines — so the same failover protocol runs over modeled and
// real execution alike. Engines reach it through a type assertion on their
// Exec; a backend that does not implement it gets a structured
// UnsupportedError instead of a mid-run panic.
type FaultExec interface {
	Exec

	// InjectFaults installs a fault plan before Drive (at most once). A
	// backend that supports only part of the plan's feature set rejects the
	// unsupported remainder with a precise *UnsupportedError.
	InjectFaults(fp FaultPlan) error
	// FaultStats returns the counters of faults injected so far.
	FaultStats() FaultStats
	// Crashes returns the node crashes that actually occurred. The DES
	// reports them in virtual-time order; the native backend sorts by node
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
	// ShipTrace transfers a captured execution trace from node src to node
	// dst as an ordinary costed message, counted separately in Stats so the
	// recovery protocol's trace traffic stays visible.
	ShipTrace(src, dst int, bytes int64, pre Event) Event
}

// BlockedAgent describes one stalled agent in a HangError: its name, the
// event it is parked on, and the primitive that owns that event.
type BlockedAgent struct {
	Name      string
	Waiting   Event
	Primitive string // "barrier", "collective", "copy", "task", "sync", "merge", "event"
}

// HangError is the native backend's analogue of the DES DeadlockError: the
// wall-clock watchdog observed no progress — every live agent blocked, no
// work item or sleeper in flight, no event triggered — for a full timeout
// window. It names the blocked agents and what they are parked on, turning
// a would-be test timeout into a structured error.
type HangError struct {
	Timeout Time // the watchdog window that elapsed with no progress
	Blocked []BlockedAgent
}

func (e *HangError) Error() string {
	s := fmt.Sprintf("realm: native execution stalled (no progress for %.3fs); blocked agents:", e.Timeout.Seconds())
	for _, b := range e.Blocked {
		s += " " + b.Name + "(" + b.Primitive + ")"
	}
	return s
}

// UnsupportedError reports an operation the selected backend does not
// implement (e.g. a virtual-time crash schedule on the native backend,
// which has no virtual clock to schedule against).
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
	_ FaultExec    = (*Sim)(nil)
	_ Agent        = (*Thread)(nil)
	_ BarrierOp    = (*Barrier)(nil)
	_ CollectiveOp = (*Collective)(nil)
)

// Backend implements Exec.
func (s *Sim) Backend() string { return "des" }

// SpawnOn implements Exec by binding the agent to the node's proc-th
// processor.
func (s *Sim) SpawnOn(name string, node, proc int, fn func(Agent)) Agent {
	return s.Spawn(name, s.Node(node).Proc(proc), func(t *Thread) { fn(t) })
}

// LaunchOn implements Exec via the node's earliest-free-processor mapping
// (Node.LaunchAuto). When the installed fault plan carries logical-point
// crash schedules, the issue is also a crash opportunity: the per-node
// launch counter advances, and if this is the scheduled launch the node
// fail-stops here — before the launch lands, so the launch itself is lost
// (LaunchAuto sees a failed node), exactly as on the native backend.
func (s *Sim) LaunchOn(node int, pre Event, dur Time, body func()) Event {
	if s.launchCrashAt != nil && !s.Node(node).failed {
		s.launchSeq[node]++
		if at, ok := s.launchCrashAt[node]; ok && s.launchSeq[node] == at {
			s.crashNode(node)
		}
	}
	return s.Node(node).LaunchAuto(pre, dur, body)
}

// CopyBytes implements Exec.
func (s *Sim) CopyBytes(src, dst int, bytes int64, pre Event, body func()) Event {
	return s.Copy(s.Node(src), s.Node(dst), bytes, pre, body)
}

// Barrier implements Exec.
func (s *Sim) Barrier(n int) BarrierOp { return s.NewBarrier(n) }

// Collective implements Exec.
func (s *Sim) Collective(n int, identity float64, fold func(acc, v float64) float64) CollectiveOp {
	return s.NewCollective(n, identity, fold)
}

// Drive implements Exec by running the event loop to completion.
func (s *Sim) Drive() (Time, error) { return s.Run() }

// NodeFailed implements FaultExec.
func (s *Sim) NodeFailed(node int) bool { return s.Node(node).Failed() }

// NodeFailEvent implements FaultExec.
func (s *Sim) NodeFailEvent(node int) Event { return s.Node(node).FailEvent() }

// KillAgent implements FaultExec on the DES's simulated threads.
func (s *Sim) KillAgent(a Agent) {
	if t, ok := a.(*Thread); ok {
		s.Kill(t)
	}
}

// Quiesce implements FaultExec as a no-op: the DES never runs two things at
// once, so an abandoned epoch's work cannot race a restore.
func (s *Sim) Quiesce() {}
