package spmd

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// This file is the recovery layer of the SPMD executor: periodic
// barrier-consistent checkpoints of the distributed instance stores plus
// the replicated scalar environment, shard relaunch on surviving nodes
// after a node crash, bounded retry with exponential backoff (virtual time
// on the DES, wall-clock on the native backend), and graceful degradation
// to the last checkpoint when the budget runs out. It is written against
// realm.Exec's failure half, so the same protocol runs over modeled and
// real execution.
//
// Correctness rests on two properties of the execution model. First, every
// epoch boundary is quiescent: the control thread has seen every shard's
// completion event, which a shard only triggers after all of its
// iterations' operations (tasks, copies, collectives) have finished, so
// cloning the instance stores there captures a consistent cut. Second,
// results are placement-independent: scalar collectives fold in
// participant-index order and reduction copies chain in source order, both
// fixed by the compiled plan rather than by node assignment, so re-running
// an epoch on a different set of nodes reproduces bitwise-identical values.

// Recovery configures checkpoint/restart for replicated loops. The zero
// value disables recovery entirely (the executor takes the exact fault-free
// schedule, with zero extra events or copies).
type Recovery struct {
	// CheckpointEvery is the number of iterations per epoch; a checkpoint is
	// taken at every epoch boundary except the last. 0 means trip/4 (at
	// least 1).
	CheckpointEvery int
	// MaxRetries bounds consecutive restarts without forward progress; the
	// counter resets every time an epoch completes. 0 disables recovery.
	MaxRetries int
	// Backoff is the delay before the first restart — virtual time on the
	// DES, real wall-clock time on the native backend — doubling on each
	// consecutive retry. 0 means 1ms.
	Backoff realm.Time
}

// DefaultRecovery returns the recovery settings used when fault injection
// is enabled without explicit tuning.
func DefaultRecovery() Recovery { return Recovery{MaxRetries: 3} }

// normalized fills in the defaults. Without a restart budget the loop runs
// as one epoch spanning the trip: no checkpoint, no restart.
func (r Recovery) normalized(trip int) Recovery {
	if r.MaxRetries <= 0 {
		return Recovery{CheckpointEvery: trip}
	}
	if r.CheckpointEvery <= 0 {
		r.CheckpointEvery = trip / 4
	}
	if r.CheckpointEvery < 1 {
		r.CheckpointEvery = 1
	}
	if r.Backoff <= 0 {
		r.Backoff = realm.Milliseconds(1)
	}
	return r
}

// FaultReport summarizes the faults a run observed and the recovery
// actions taken. CompletedIters/TotalIters describe the loop that degraded
// when Unrecovered is set. Rebuilds records every failover that completed —
// its restore (or, from scratch, its init phase) done — in the order they
// were installed, for verify.CertifyRebuild; a failover interrupted by a
// further crash is superseded by the next and not recorded.
type FaultReport struct {
	Crashes        []realm.NodeCrash
	Checkpoints    int
	Restarts       int
	Unrecovered    bool
	Reason         string
	CompletedIters int
	TotalIters     int
	Rebuilds       []cr.RebuildSpec
}

func (e *Engine) rep() *FaultReport {
	if e.report == nil {
		e.report = &FaultReport{}
	}
	return e.report
}

// liveAssign maps ns shards blockwise onto the live nodes, ascending; with
// every node alive it reproduces the static placement of §4.2 (shard s on
// node s*Nodes/NumShards). Node 0 always counts as live — it hosts the
// control thread, so its loss ends the run regardless.
func (e *Engine) liveAssign(ns int) []int {
	var live []int
	for i := 0; i < e.Sim.Nodes(); i++ {
		if i == 0 || !e.Sim.NodeFailed(i) {
			live = append(live, i)
		}
	}
	assign := make([]int, ns)
	for s := range assign {
		assign[s] = live[s*len(live)/ns]
	}
	return assign
}

// recordRebuild adds the failover whose state st now holds to the report:
// the nodes down, the placement installed, the instances repopulated, and
// the iteration the loop resumes from.
func (e *Engine) recordRebuild(st *runState, resume int) {
	rs := cr.RebuildSpec{Nodes: e.Sim.Nodes(), Assign: st.assign, Restored: st.restored, ResumeIter: resume}
	for i := 0; i < rs.Nodes; i++ {
		if e.Sim.NodeFailed(i) {
			rs.Crashed = append(rs.Crashed, i)
		}
	}
	e.rep().Rebuilds = append(e.rep().Rebuilds, rs)
}

// checkpoint is one barrier-consistent cut of a replicated loop: the
// iteration count reached, clones of every partition instance's store by
// instance key (Real mode), and the replicated scalar environment. It
// models durable state on node 0's stable storage.
type checkpoint struct {
	iter   int
	stores []*region.Store
	env    ir.MapEnv
}

func copyEnv(src ir.MapEnv) ir.MapEnv {
	out := make(ir.MapEnv, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// waitOrFail blocks the control thread until ev fires or any node hosting
// the run state fails, whichever comes first; it reports whether ev won.
// Without this race, a crash that swallows a completion event would leave
// the control thread blocked forever (the deadlock the fault tests pin).
// With recovery off no node is watched and the wait is a plain WaitEvent:
// no extra event, no continuation — the exact fault-free schedule.
func (e *Engine) waitOrFail(ctl realm.Agent, st *runState, ev realm.Event) bool {
	x := e.Sim
	if len(st.watch) == 0 {
		ctl.WaitEvent(ev)
		return true
	}
	if x.Triggered(ev) {
		return true
	}
	out := x.NewUserEvent()
	// The completion and failure continuations race on the native backend
	// (real goroutines trigger concurrently); first to settle wins, and the
	// loser's trigger must not fire `out` twice.
	var settled, failed int32
	settle := func(f bool) func() {
		return func() {
			if !atomic.CompareAndSwapInt32(&settled, 0, 1) {
				return
			}
			if f {
				atomic.StoreInt32(&failed, 1)
			}
			x.Trigger(out)
		}
	}
	x.OnTrigger(ev, settle(false))
	for _, n := range st.watch {
		x.OnTrigger(x.NodeFailEvent(n), settle(true))
	}
	ctl.WaitEvent(out)
	return atomic.LoadInt32(&failed) == 0
}

// takeCheckpoint models moving every instance's bytes to node 0's stable
// storage and (Real mode) clones the stores. Returns nil if a node failed
// mid-checkpoint.
func (e *Engine) takeCheckpoint(ctl realm.Agent, st *runState, iter int) *checkpoint {
	e.rep().Checkpoints++
	var evs []realm.Event
	st.eachInstance(false, func(key int32, _ *region.Region, _ []region.FieldID, bytes int64) {
		evs = append(evs, e.Sim.CopyBytes(st.ownerNode(key), 0, bytes, realm.NoEvent, nil))
	})
	if !e.waitOrFail(ctl, st, e.Sim.Merge(evs...)) {
		return nil
	}
	cp := &checkpoint{iter: iter, env: copyEnv(st.curEnv)}
	if e.Mode == ir.ExecReal {
		cp.stores = make([]*region.Store, len(st.plan.UsedParts)*len(st.plan.Domain))
		st.eachInstance(false, func(key int32, _ *region.Region, _ []region.FieldID, _ int64) {
			cp.stores[key] = st.stores[key].Clone()
		})
	}
	return cp
}

// restorePhase repopulates every instance of st, a fresh run state on the
// surviving nodes, from the checkpoint (modeled as copies from node 0's
// stable storage), and resets the scalar environment. It reports false if
// yet another node failed during the restore.
func (e *Engine) restorePhase(ctl realm.Agent, st *runState, cp *checkpoint) bool {
	st.curEnv = copyEnv(cp.env)
	var evs []realm.Event
	st.eachInstance(false, func(key int32, _ *region.Region, _ []region.FieldID, bytes int64) {
		if e.Mode == ir.ExecReal {
			st.stores[key] = cp.stores[key].Clone()
		}
		evs = append(evs, e.Sim.CopyBytes(0, st.ownerNode(key), bytes, realm.NoEvent, nil))
		st.markRestored(key)
	})
	return e.waitOrFail(ctl, st, e.Sim.Merge(evs...))
}

// degrade gives up on the loop of st: the last checkpoint (if any) becomes
// the result — written back to the parent regions directly, since the
// checkpoint lives on node 0 beside them — and the report records the
// partial progress. Subsequent statements of the program do not run.
func (e *Engine) degrade(st *runState, trip, retries int, cp *checkpoint, times []realm.Time) {
	rep := e.rep()
	rep.Unrecovered = true
	rep.TotalIters = trip
	done := 0
	if cp != nil {
		done = cp.iter
		if e.Mode == ir.ExecReal {
			st.eachInstance(true, func(key int32, sub *region.Region, fields []region.FieldID, _ int64) {
				copyFields(e.global[sub.Root()], cp.stores[key], fields, sub.IndexSpace())
			})
		}
		for k, v := range cp.env {
			e.env[k] = v
		}
	}
	rep.CompletedIters = done
	rep.Reason = fmt.Sprintf("spmd: recovery budget exhausted after %d restarts with %d node crashes; degraded to the checkpoint at iteration %d of %d",
		retries, len(e.Sim.Crashes()), done, trip)
	e.iterTimes[st.plan.Loop] = times[:done]
	e.degraded = true
}

// shipTraces sends the loop's surviving shared capture from node 0's
// stable storage to every other node of a freshly rebuilt placement, as
// real messages (Exec.CopyBytes: modeled wire cost and fault injection on
// either backend), counted in Stats.TraceShips, before the restarted
// shards re-resolve their plans. No-op when the loop has no shared capture
// yet, as always under NoTrace or NoShare. Reports false if a node failed
// mid-shipment.
func (e *Engine) shipTraces(ctl realm.Agent, st *runState) bool {
	bytes, ok := e.shared[st.plan]
	if !ok {
		return true
	}
	var evs []realm.Event
	for _, n := range st.watch { // sorted: the shipment order is deterministic
		if n == 0 {
			continue
		}
		evs = append(evs, e.Sim.CopyBytes(0, n, bytes, realm.NoEvent, nil))
		e.traceStats.Ships++
		e.traceStats.ShippedBytes += bytes
	}
	if len(evs) == 0 {
		return true
	}
	return e.waitOrFail(ctl, st, e.Sim.Merge(evs...))
}

// runReplicated executes one compiled loop — initialization copies (Figure
// 4b lines 2-4) and hoisted loop-invariant copies, the shard tasks, and
// finalization copies back to the parent regions (lines 14-15) — in
// checkpointed epochs:
//
//	init -> [epoch -> checkpoint]* -> epoch -> finalize
//
// Every phase races against node failures (waitOrFail); a failure kills
// the surviving shard threads, backs off exponentially in virtual time,
// remaps shards onto the live nodes, restores the last checkpoint, and
// retries. MaxRetries consecutive failures degrade to the checkpoint. With
// recovery off (the zero Recovery) the budget is zero and the trip is one
// unwatched epoch: the exact fault-free schedule.
func (e *Engine) runReplicated(ctl realm.Agent, plan *cr.Compiled) {
	trip := plan.Loop.Trip
	rec := e.Recov.normalized(trip)
	ns := plan.Opts.NumShards
	times := make([]realm.Time, trip)
	ix, err := cr.NewIndex(plan)
	if err != nil {
		panic(fmt.Sprintf("spmd: %v", err))
	}
	st := newRunState(e, plan, ix, e.liveAssign(ns), times)
	var cp *checkpoint
	retries := 0
	needInit := true
	done := 0

	// restart consumes one retry, backs off (virtual time on the DES, real
	// wall-clock exponential backoff on native), and rebuilds state from the
	// last checkpoint (or from scratch when none exists yet). The rebuild
	// discards the old run state's shard plans (trace invalidation: the
	// placement changed) and then ships the surviving shared capture to the
	// new placement so the restarted shards re-resolve against it. It
	// recurses — within the same budget — if another node fails mid-restore
	// or mid-shipment.
	var restart func() bool
	restart = func() bool {
		// Drain the abandoned epoch first: on the native backend the killed
		// shard agents and their in-flight work items are real goroutines
		// that may still be writing the old run state's instances; the
		// restore (and degrade's write-back) must not race them. No-op on
		// the DES. Closing the abandoned state keeps its late retirements
		// from stamping the loop's times.
		e.Sim.Quiesce()
		st.close()
		if retries >= rec.MaxRetries {
			return false
		}
		retries++
		e.rep().Restarts++
		e.traceStats.Invalidations += st.dropPlans()
		ctl.Sleep(rec.Backoff << (retries - 1))
		// Without a checkpoint the rebuild starts from scratch: the failure
		// may have landed after an epoch completed but before its first
		// checkpoint committed (mid-capture), so the cursor rolls back to 0.
		st = newRunState(e, plan, ix, e.liveAssign(ns), times)
		needInit, done = cp == nil, 0
		if cp != nil {
			if !e.restorePhase(ctl, st, cp) {
				return restart()
			}
			done = cp.iter
		}
		if !e.shipTraces(ctl, st) {
			return restart()
		}
		if !needInit {
			e.recordRebuild(st, done)
		}
		return true
	}

	for {
		var ok bool
		switch {
		case needInit:
			if ok = e.initPhase(ctl, st); ok {
				needInit = false
				if retries > 0 {
					// A restart from scratch: the init phase was its restore.
					e.recordRebuild(st, 0)
				}
			}

		case done < trip:
			hi := min(done+rec.CheckpointEvery, trip)
			if ok = e.runEpoch(ctl, st, done, hi); !ok {
				break
			}
			done = hi
			retries = 0
			if done < trip {
				ncp := e.takeCheckpoint(ctl, st, done)
				if ok = ncp != nil; ok {
					cp = ncp
				}
			}

		default:
			if ok = e.finalizePhase(ctl, st); ok {
				st.close()
				e.iterTimes[plan.Loop] = times
				e.mergeEnv(st)
				if e.finalized != nil {
					e.finalized(st)
				}
				return
			}
		}
		if !ok && !restart() {
			e.degrade(st, trip, retries, cp, times)
			return
		}
	}
}
