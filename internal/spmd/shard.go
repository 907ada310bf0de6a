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
	doneBuf []realm.Event
	ctxBuf  []*ir.TaskCtx
	scratch cr.Scratch[realm.Event]
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
// dispatch on planOp.
func (sh *shard) execIter(sp *shardPlan, iter int) {
	for i := range sp.ops {
		op := &sp.ops[i]
		switch {
		case op.set != nil:
			sh.env.Set(op.set.Name, op.set.Expr(sh.env))
		case op.launch != nil:
			sh.execLaunch(op.launch, iter)
		default:
			sh.execExchange(op.xch, iter)
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
		sh.presBuf = cr.Gate(sh.presBuf[:0], cp.args)
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
		done := e.Sim.LaunchOn(lp.nodeID, e.Sim.Merge(sh.presBuf...), dur, body)
		sh.presBuf = sh.presBuf[:0]
		cr.Launched(cp.args, done)
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

// execExchange executes one exchange step list, wired by cr.Wiring.
func (sh *shard) execExchange(xp *exchangePlan, iter int) {
	st := sh.st
	w := cr.Wiring[realm.Event, shardSink]{Sink: shardSink{sh, iter, xp}, C: st.plan, Prune: st.plan.Prune, Scratch: &sh.scratch}
	w.Exchange(xp.steps, xp.start, xp.end, &sh.ops)
	if len(xp.steps) > 0 && st.plan.Opts.Sync != cr.BarrierSync {
		// A consume step reserves its iteration's sync block even when the
		// prune leaves it nothing to wire: realm.events counts the block.
		st.warFor(xp.start, 0, iter)
	}
}

// shardSink is the executor's cr.Sink: the wiring's events are realm
// events of the shard's iteration iter.
type shardSink struct {
	sh   *shard
	iter int
	xp   *exchangePlan
}

func (k shardSink) Merge(evs ...realm.Event) realm.Event { return k.sh.st.e.Sim.Merge(evs...) }

func (k shardSink) Link(to, from realm.Event, _ cr.EdgeID) { k.sh.st.e.Sim.TriggerAfter(to, from) }

func (k shardSink) War(op, pair int32) realm.Event  { return k.sh.st.warFor(op, pair, k.iter) }
func (k shardSink) Done(op, pair int32) realm.Event { return k.sh.st.warFor(op, pair, k.iter) + 1 }

// Begin charges one setup per transfer, not per member: batching the issue
// overhead is half the point of coalescing.
func (k shardSink) Begin(int) { k.sh.th.Elapse(k.sh.st.e.Over.CopySetup) }

func (k shardSink) Transfer(i int, pres []realm.Event, _ []cr.EdgeID) realm.Event {
	t, sim := &k.xp.xfers[i], k.sh.st.e.Sim
	return sim.CopyAgg(t.srcNode, t.dstNode, t.bytes, len(k.xp.steps[i].Members), sim.Merge(pres...), t.body)
}

func (k shardSink) Arrive(op, phase int32, evs []realm.Event) realm.Event {
	b := k.sh.st.barrierFor(op, k.iter, int(phase))
	b.Arrive(k.Merge(evs...))
	return b.Done()
}
