package spmd

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// initPhase populates every used partition's every subregion instance from
// the parent region's data on its owner node, then runs the hoisted
// loop-invariant copies. It reports false as soon as a watched node fails
// (the phase is idempotent and simply reruns), and marks the instances it
// populates for the failover record.
func (e *Engine) initPhase(ctl realm.Agent, st *runState) bool {
	plan := st.plan
	var initEvs []realm.Event
	for pi, part := range plan.UsedParts {
		fields := plan.InstFields[part]
		for _, col := range plan.Domain {
			sub := part.Sub(col)
			key := instKey{part.ID(), col}
			owner := st.ownerNode(col)
			// A certifier-licensed dead init (every read of the instance is
			// covered by later overwrites) skips the population transfer; the
			// store is still created so the instance exists — it stays zero
			// until the first compiler-inserted copy lands.
			ci := plan.ColorIdx[col]
			dead := plan.Prune.SkipInit(part, ci)
			if e.Mode == ir.ExecReal {
				store := region.NewStore(sub.IndexSpace(), e.Prog.FieldSpaceOf(sub))
				if !dead {
					for _, f := range fields {
						store.CopyFieldFrom(e.global[sub.Root()], f, sub.IndexSpace())
					}
				}
				st.inst[key] = store
			}
			if dead {
				continue
			}
			bytes := sub.Volume() * e.Over.EltBytes * int64(len(fields))
			initEvs = append(initEvs, e.Sim.CopyBytes(0, owner, bytes, realm.NoEvent, nil))
			st.markRestored(pi, ci)
		}
	}
	if !e.waitOrFail(ctl, st, e.Sim.Merge(initEvs...)) {
		return false
	}

	// Hoisted loop-invariant copies run once before the shards start.
	for _, cp := range plan.InitCopies {
		var evs []realm.Event
		for _, pr := range cp.Pairs {
			bytes := pr.Overlap.Volume() * e.Over.EltBytes * int64(len(cp.Fields))
			var body func()
			if e.Mode == ir.ExecReal {
				src := st.inst[instKey{cp.Src.ID(), pr.Src}]
				dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
				fields, overlap := cp.Fields, pr.Overlap
				body = func() {
					for _, f := range fields {
						dst.CopyFieldFrom(src, f, overlap)
					}
				}
			}
			evs = append(evs, e.Sim.CopyBytes(
				st.ownerNode(pr.Src), st.ownerNode(pr.Dst),
				bytes, realm.NoEvent, body))
		}
		if !e.waitOrFail(ctl, st, e.Sim.Merge(evs...)) {
			return false
		}
	}
	return true
}

// runEpoch launches the shard threads over iterations [lo, hi) and waits
// for them (§3.5). A watched node's failure aborts the wait and kills the
// surviving shard threads so the epoch can be retried from the last
// checkpoint.
func (e *Engine) runEpoch(ctl realm.Agent, st *runState, lo, hi int) bool {
	plan := st.plan
	ns := plan.Opts.NumShards
	st.shardDone = make([]realm.Event, ns)
	for s := range st.shardDone {
		st.shardDone[s] = e.Sim.NewUserEvent()
	}
	// Capture the entry environment on the control thread: shard 0 writes
	// st.curEnv back when its range ends, which may overlap another shard's
	// startup on the native backend.
	baseEnv := st.curEnv
	threads := make([]realm.Agent, ns)
	for s := 0; s < ns; s++ {
		s := s
		threads[s] = e.Sim.SpawnOn(fmt.Sprintf("shard-%d", s), st.nodeOfShard(s), 0, func(th realm.Agent) {
			sh := &shard{st: st, me: s, th: th, table: st.tables[s], baseEnv: baseEnv}
			sh.runRange(lo, hi)
			e.Sim.Trigger(st.shardDone[s])
		})
	}
	if e.waitOrFail(ctl, st, e.Sim.Merge(st.shardDone...)) {
		return true
	}
	for _, th := range threads {
		e.Sim.KillAgent(th)
	}
	return false
}

// finalizePhase copies the disjoint written partitions' instances back to
// the parent regions on node 0. The copies overwrite whole subregions, so
// a half-finished finalization is safely redone after recovery.
func (e *Engine) finalizePhase(ctl realm.Agent, st *runState) bool {
	plan := st.plan
	var finEvs []realm.Event
	for _, part := range plan.WrittenDisjoint {
		fields := plan.InstFields[part]
		for _, col := range plan.Domain {
			sub := part.Sub(col)
			var body func()
			if e.Mode == ir.ExecReal {
				src := st.inst[instKey{part.ID(), col}]
				dst := e.global[sub.Root()]
				ispace := sub.IndexSpace()
				fs := fields
				body = func() {
					for _, f := range fs {
						dst.CopyFieldFrom(src, f, ispace)
					}
				}
			}
			bytes := sub.Volume() * e.Over.EltBytes * int64(len(fields))
			finEvs = append(finEvs, e.Sim.CopyBytes(st.ownerNode(col), 0, bytes, realm.NoEvent, body))
		}
	}
	return e.waitOrFail(ctl, st, e.Sim.Merge(finEvs...))
}

// mergeEnv folds the replicated scalar state back into the control
// environment; scalars converge across shards, so shard 0's bindings are
// the program's.
func (e *Engine) mergeEnv(st *runState) {
	if st.plan.Opts.NumShards > 0 {
		for k, v := range st.curEnv {
			e.env[k] = v
		}
	}
}

// shard is the per-shard execution state: the thread, the shard's block of
// the domain, its instance table, and its replicated scalar environment.
type shard struct {
	st    *runState
	me    int
	th    realm.Agent
	table *shardTable
	// baseEnv is the replicated scalar environment at epoch entry, captured
	// by the control thread before the shard agents start.
	baseEnv ir.MapEnv
	env     *realm.Futures
	// ops collects the events of the current iteration.
	ops []realm.Event
	// Scratch buffers recycled across the shard's issue loops. Merge does
	// not retain its inputs, so a buffer can be reused as soon as the Merge
	// consuming it returns.
	presBuf []realm.Event
	evBuf   []realm.Event
	wrBuf   []realm.Event
	doneBuf []realm.Event
	ctxBuf  []*ir.TaskCtx
}

// runRange replicates the loop's control flow over the shard's owned
// colors for iterations [lo, hi): one epoch of the trip (the whole trip
// when recovery is off). The scalar environment starts from the run
// state's current bindings (the loop entry environment, or the restored
// checkpoint's) and shard 0 publishes them back at the end of the range.
func (sh *shard) runRange(lo, hi int) {
	st := sh.st
	plan := st.plan
	e := st.e
	// Scalars are replicated (§4.4): every shard runs the same scalar
	// statements on the same values, and a collective folds in participant
	// order, so every shard's bindings stay identical.
	sh.env = realm.NewFutures("spmd", sh.th, sh.baseEnv)

	window := max(e.Over.Window, 1)
	// Every iteration is resolved into a plan and executed from it (see
	// plan.go). Unless NoTrace is set, the plan is resolved once and shared
	// by all the iterations; under NoTrace each iteration resolves its own
	// fresh plan — never a reused one, because the window keeps several
	// iterations' deferred bodies in flight.
	var sp *shardPlan
	replayed := 0
	if !e.NoTrace {
		sp = st.planFor(sh)
		// Iterations executed from the memoized plan are counted locally and
		// folded in once per range, not per iteration: the engine-wide lock
		// would otherwise serialize every native shard agent in steady
		// state. Deferred so a killed shard's completed iterations count.
		defer func() {
			e.planMu.Lock()
			e.traceStats.ReplayedIters += replayed
			e.planMu.Unlock()
		}()
	}
	n := hi - lo
	iterDone := make([]realm.Event, n)
	for i := 0; i < n; i++ {
		t := lo + i
		if i >= window {
			sh.th.WaitEvent(iterDone[i-window])
		}
		sh.env.Set(plan.Loop.Var, float64(t))
		sh.ops = sh.ops[:0]
		if e.NoTrace {
			sp = st.resolve(sh)
		}
		sh.execIter(sp, t)
		if !e.NoTrace {
			replayed++
		}
		iterDone[i] = e.Sim.Merge(sh.ops...)
		st.recordIter(t, iterDone[i])
	}
	for i := max(0, n-window); i < n; i++ {
		sh.th.WaitEvent(iterDone[i])
	}
	if sh.me == 0 {
		st.curEnv = sh.env.Snapshot()
	}
}

// execIter executes one iteration's body from its plan. This is the only
// dispatch on planOp: the sync lowering (§3.4) selects which of the two
// exchange executors runs the same exchangePlan value.
func (sh *shard) execIter(sp *shardPlan, iter int) {
	barrier := sh.st.plan.Opts.Sync == cr.BarrierSync
	for i := range sp.ops {
		op := &sp.ops[i]
		switch {
		case op.set != nil:
			sh.env.Set(op.set.Name, op.set.Expr(sh.env))
		case op.launch != nil:
			sh.execLaunch(op.launch, iter)
		case barrier:
			sh.execExchangeBarrier(op.xch, iter)
		default:
			sh.execExchangeP2P(op.xch, iter)
		}
	}
}

// execLaunch issues the shard's owned tasks of one index launch. Shard-local
// issue cost replaces the central control thread's — the core of the
// optimization.
func (sh *shard) execLaunch(lp *launchPlan, iter int) {
	st := sh.st
	e := st.e
	l := lp.l

	// Scalar arguments are evaluated live every iteration: forcing a
	// future-valued scalar blocks the shard thread on its collective, and
	// that wait is part of the schedule.
	scalars := make([]float64, len(l.ScalarArgs))
	for i, ex := range l.ScalarArgs {
		scalars[i] = ex(sh.env)
	}

	// localDone/ctxs feed only the launch-level scalar reduction; skip the
	// bookkeeping entirely for launches without one.
	reduce := l.Reduce != nil
	localDone := sh.doneBuf[:0]
	ctxs := sh.ctxBuf[:0]
	for ci := range lp.colors {
		cp := &lp.colors[ci]
		sh.th.Elapse(e.Over.ShardLaunchBase)
		pres := sh.presBuf[:0]
		for _, a := range cp.args {
			pres = append(pres, a.st.lastWrite)
			if a.priv != ir.PrivRead {
				pres = append(pres, a.st.readers...)
			}
		}
		dur := cp.durBase
		if e.Over.Noise != nil {
			dur = realm.Time(float64(dur) * e.Over.Noise(lp.nodeID, iter))
		}

		var body func()
		var ctx *ir.TaskCtx
		if e.Mode == ir.ExecReal {
			// The context must be per-iteration (window run-ahead keeps
			// several iterations' bodies in flight, each with its own Return
			// and scalars), but the argument bindings alias the plan's.
			ctx = &ir.TaskCtx{Color: cp.col, Scalars: scalars, Args: cp.physArgs, Footprints: cp.footprints}
			kernel := l.Task.Kernel
			reinits := cp.reinits
			body = func() {
				for _, re := range reinits {
					re()
				}
				if kernel != nil {
					kernel(ctx)
				}
			}
		}
		done := e.Sim.LaunchOn(lp.nodeID, e.Sim.Merge(pres...), dur, body)
		sh.presBuf = pres[:0]

		for _, a := range cp.args {
			if a.priv == ir.PrivRead {
				a.st.readers = append(a.st.readers, done)
			} else {
				a.st.lastWrite = done
				a.st.readers = a.st.readers[:0]
			}
		}
		if reduce {
			localDone = append(localDone, done)
			ctxs = append(ctxs, ctx)
		}
		sh.ops = append(sh.ops, done)
	}
	sh.doneBuf, sh.ctxBuf = localDone[:0], ctxs[:0]

	if reduce {
		// One contribution per task color (not per shard): the collective
		// folds values in participant-index order, so indexing by global
		// color keeps the fold order — and hence the floating-point result —
		// bitwise identical to the sequential semantics.
		coll := st.collFor(l, iter, l.Reduce.Op)
		op := l.Reduce.Op
		for k := range lp.colors {
			ctx := ctxs[k]
			coll.Contribute(lp.colors[k].colIdx, localDone[k], func() float64 {
				if ctx == nil {
					return op.Identity()
				}
				return ctx.Return
			})
		}
		sh.env.SetFuture(l.Reduce.Into, coll.Done(), coll.Result)
		sh.ops = append(sh.ops, coll.Done())
	}
}

// consume is a consume step under point-to-point synchronization (§3.4): the
// shard owning the destination computes the write-after-read release,
// connects it to every pair's war event, and advances the instance's
// validity to the pairs' done events.
func (sh *shard) consume(w *stepPlan, iter int) {
	st := sh.st
	e := st.e
	prune := st.plan.Prune
	s := w.dstState
	rel := append(sh.evBuf[:0], s.readers...)
	rel = append(rel, s.lastWrite)
	release := e.Sim.Merge(rel...)
	newWrites := append(sh.wrBuf[:0], s.lastWrite)
	for k := w.groupStart; k < w.groupEnd; k++ {
		ps := st.pairSyncFor(w.copyID, k, iter)
		if !prune.SkipWar(w.copyID, k) {
			e.Sim.TriggerAfter(ps.war, release)
		}
		if !prune.SkipDone(w.copyID, k) {
			newWrites = append(newWrites, ps.done)
			sh.ops = append(sh.ops, ps.done)
		}
	}
	s.lastWrite = e.Sim.Merge(newWrites...)
	s.readers = s.readers[:0]
	sh.evBuf, sh.wrBuf = rel[:0], newWrites[:0]
}

// execExchangeP2P executes one exchange step list under point-to-point
// synchronization. A consume step releases and observes the per-pair
// war/done events of one destination group the shard owns; consumers are
// oblivious to how producers batch. A produce step issues ONE transfer for
// all its members: preconditions are the union of the members' wars, source
// validity, and fold-chain links (the predecessor may belong to another
// shard — the done event is shared state), the payload is the summed member
// bytes, and the single completion event fans out to every member's done.
// Members carry their own op's copy ID: an aggregated step spans copy ops,
// and the per-pair sync slots stay keyed by the owning op.
func (sh *shard) execExchangeP2P(xp *exchangePlan, iter int) {
	st := sh.st
	e := st.e
	prune := st.plan.Prune
	for si := range xp.steps {
		s := &xp.steps[si]
		if s.dstState != nil {
			sh.consume(s, iter)
			continue
		}
		// One setup charge per transfer, not per member: batching the issue
		// overhead is half the point of coalescing.
		sh.th.Elapse(e.Over.CopySetup)
		pres := sh.presBuf[:0]
		for mi := range s.members {
			m := &s.members[mi]
			if !prune.SkipWar(m.copyID, m.pairIdx) {
				pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx, iter).war)
			}
			pres = append(pres, m.srcState.lastWrite)
			if m.chain {
				pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx-1, iter).done)
			}
		}
		ev := e.Sim.CopyAgg(s.srcNode, s.dstNode, s.bytes, len(s.members), e.Sim.Merge(pres...), s.body)
		sh.presBuf = pres[:0]
		for mi := range s.members {
			m := &s.members[mi]
			m.srcState.readers = append(m.srcState.readers, ev)
			if prune.SkipDone(m.copyID, m.pairIdx) {
				// Done pruned: the transfer's own completion joins the
				// producer's iteration merge so loop-end quiescence still covers
				// it; nothing triggers or waits on the pair's done.
				sh.ops = append(sh.ops, ev)
			} else {
				done := st.pairSyncFor(m.copyID, m.pairIdx, iter).done
				e.Sim.TriggerAfter(done, ev)
				sh.ops = append(sh.ops, done)
			}
		}
	}
}

// barrierArrive arrives at a copy op's entry barrier once everything this
// shard has issued so far in the iteration has completed, plus all
// outstanding consumers of the destination instances it owns (deferred
// execution means prior-iteration readers may still be in flight). op is the
// copy's position in xp.ids.
func (sh *shard) barrierArrive(b1 realm.BarrierOp, xp *exchangePlan, op int) {
	arr := append(sh.evBuf[:0], sh.ops...)
	for si := range xp.steps {
		if w := &xp.steps[si]; w.dstState != nil && w.op == op {
			arr = append(arr, w.dstState.lastWrite)
			arr = append(arr, w.dstState.readers...)
		}
	}
	b1.Arrive(sh.st.e.Sim.Merge(arr...))
	sh.evBuf = arr[:0]
}

// barrierExit arrives at a copy op's exit barrier with the issued transfers
// (and the entry barrier, for a shard that issued none); all the shard's
// destination instances of the op become valid after it.
func (sh *shard) barrierExit(b2 realm.BarrierOp, copyEvs []realm.Event, b1done realm.Event, xp *exchangePlan, op int) {
	sim := sh.st.e.Sim
	arr := append(append(sh.evBuf[:0], copyEvs...), b1done)
	b2.Arrive(sim.Merge(arr...))
	sh.evBuf = arr[:0]
	for si := range xp.steps {
		if w := &xp.steps[si]; w.dstState != nil && w.op == op {
			w.dstState.lastWrite = sim.Merge(w.dstState.lastWrite, b2.Done())
			w.dstState.readers = w.dstState.readers[:0]
		}
	}
	sh.ops = append(sh.ops, b2.Done())
}

// execExchangeBarrier executes one exchange step list under the naive
// barrier lowering of Figure 4c, kept as the ablation baseline for the
// point-to-point optimization: per covered copy op a global barrier protects
// write-after-read, the transfers run, and a second barrier protects
// read-after-write. A transfer's members may span the covered ops, so its
// precondition spans their entry barriers: the shard arrives at EVERY op's
// entry barrier up front — without threading one op's exit barrier into the
// next op's entry arrival, which would cycle the transfers against the
// barriers — then issues the transfers (waiting all the entry barriers,
// source validity, and fold-chain links), then arrives at every op's exit
// barrier with all the completions. With several ops covered each exit
// barrier thus waits the whole phase's transfers, not only its own members':
// over-synchronized relative to one op at a time, but only ever tighter,
// never a reordering. Reduction folds into one destination still chain in
// source order across all producing shards via the shared per-pair done
// events, so the fold order is deterministic even under barriers.
func (sh *shard) execExchangeBarrier(xp *exchangePlan, iter int) {
	st := sh.st
	e := st.e
	b1done := make([]realm.Event, len(xp.ids))
	for op, id := range xp.ids {
		b1 := st.barrierFor(id, iter, 0)
		sh.barrierArrive(b1, xp, op)
		b1done[op] = b1.Done()
	}

	copyEvs := make([]realm.Event, 0, len(xp.steps))
	for si := range xp.steps {
		s := &xp.steps[si]
		if s.dstState != nil {
			continue
		}
		sh.th.Elapse(e.Over.CopySetup)
		pres := append(sh.presBuf[:0], b1done...)
		for mi := range s.members {
			m := &s.members[mi]
			pres = append(pres, m.srcState.lastWrite)
			if m.chain {
				pres = append(pres, st.pairSyncFor(m.copyID, m.pairIdx-1, iter).done)
			}
		}
		ev := e.Sim.CopyAgg(s.srcNode, s.dstNode, s.bytes, len(s.members), e.Sim.Merge(pres...), s.body)
		sh.presBuf = pres[:0]
		for mi := range s.members {
			m := &s.members[mi]
			m.srcState.readers = append(m.srcState.readers, ev)
			if m.reduce && !st.plan.Prune.SkipDone(m.copyID, m.pairIdx) {
				e.Sim.TriggerAfter(st.pairSyncFor(m.copyID, m.pairIdx, iter).done, ev)
			}
		}
		copyEvs = append(copyEvs, ev)
	}

	for op, id := range xp.ids {
		sh.barrierExit(st.barrierFor(id, iter, 1), copyEvs, b1done[op], xp, op)
	}
}
