package rt

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// site is everything about issuing a launch that depends only on the launch
// statement, its argument partitions and the engine's configuration (mapper,
// overheads and node count are fixed for a Run). Building one checks the
// launch's independence (ir.Launch.CheckIndependent), and siteFor builds a
// new one whenever an argument's partition has changed, so a site's
// identity is the trace's fingerprint of the launch.
type site struct {
	parts    []*region.Partition    // l.Args[i].Part when the site was built
	domIdx   map[geometry.Point]int // color -> position in l.Domain
	fulls    []bool                 // per arg: the domain covers the partition's color space
	targets  []int                  // mapper decision per color
	durBase  []realm.Time           // kernel duration per color, before noise
	redBytes [][]int64              // per arg: reduction-instance bytes per color (nil unless PrivReduce)
}

// siteFor returns the launch's site, building it on first issue and again
// when a scalar statement has swapped an argument's partition since (the
// launch statement is otherwise static IR): the repartitioned launch is
// checked and sized like a new one.
func (e *Engine) siteFor(l *ir.Launch) *site {
	st := e.sites[l]
	if st != nil {
		same := true
		for ai := range l.Args {
			same = same && l.Args[ai].Part == st.parts[ai]
		}
		if same {
			return st
		}
	}
	numColors := len(l.Domain)
	st = &site{
		parts:    make([]*region.Partition, len(l.Args)),
		domIdx:   make(map[geometry.Point]int, numColors),
		fulls:    make([]bool, len(l.Args)),
		targets:  make([]int, numColors),
		durBase:  make([]realm.Time, numColors),
		redBytes: make([][]int64, len(l.Args)),
	}
	if err := l.CheckIndependent(); err != nil {
		panic(err)
	}
	for ai, a := range l.Args {
		st.parts[ai] = a.Part
		st.fulls[ai] = numColors == len(a.Part.Colors())
		if param := l.Task.Params[ai]; param.Priv == ir.PrivReduce {
			st.redBytes[ai] = make([]int64, numColors)
			for idx, c := range l.Domain {
				st.redBytes[ai][idx] = a.At(c).Volume() * region.EltBytes * int64(len(param.Fields))
			}
		}
	}
	nodes := e.Sim.Nodes()
	for idx, c := range l.Domain {
		st.domIdx[c] = idx
		st.targets[idx] = e.Map.NodeFor(idx, numColors, nodes)
		vol := l.Args[l.Task.CostArg].At(c).Volume()
		st.durBase[idx] = realm.Time(l.Task.Cost(vol) / float64(e.Over.KernelCores))
	}
	e.sites[l] = st
	return st
}

// launchPerDep is the control thread's added analysis time per dependence
// edge a task has: 2 µs. remoteStartBytes is the size of the task-start
// message sent to a remote node.
const (
	launchPerDep     realm.Time = 2000
	remoteStartBytes int64      = 256
)

// issueLaunch performs an index launch: the per-task control-thread
// overhead, task-start messages to remote nodes, RAW data movement, deferred
// task execution, region-reduction instance application (§4.3), and
// launch-level scalar reduction into a future (§4.4). The dependence edges
// come from the dynamic analysis, or — when the loop's trace is replaying and
// holds this launch at its cursor — from the trace's record; everything
// issued from them is the same code, so the schedule cannot depend on which.
func (e *Engine) issueLaunch(l *ir.Launch) {
	st := e.siteFor(l)
	ts := e.trace
	var rec *launchRec
	if ts != nil && ts.phase == tracePhaseReplay {
		if rec = ts.next(st); rec == nil {
			ts.invalidate(e)
		}
	}

	var scalars []float64
	if n := len(l.ScalarArgs); n > 0 {
		scalars = make([]float64, n)
		for i, ex := range l.ScalarArgs {
			scalars[i] = ex(e.env) // forces future-valued scalars
		}
	}

	// One new use per region argument. Analysed uses are retained by the
	// epoch lists (and compared by identity while a trace is captured), so
	// they are fresh allocations; replayed ones come from the trace's pool
	// and sit in its table, where later edges resolve against them. (A trace
	// is promoted from two captured iterations of the same launch sequence
	// and those are the two tables, so the cursor's slot exists and has one
	// entry per argument.)
	numColors := len(l.Domain)
	var uses []*use
	var deps [][][]dep // analysed edges by argument, then color
	if rec != nil {
		uses = ts.curUses[ts.cursor]
	} else {
		uses = make([]*use, len(l.Args))
		deps = make([][][]dep, len(l.Args))
	}
	for ai, param := range l.Task.Params {
		u := e.getUse(numColors, rec != nil)
		u.part, u.priv, u.op = st.parts[ai], param.Priv, param.Op
		u.fields, u.full, u.domIdx = param.Fields, st.fulls[ai], st.domIdx
		if rec == nil {
			deps[ai] = e.depsForArg(u, l.Domain)
		}
		uses[ai] = u
	}

	// taskDone is recycled across launches: its values are copied into the
	// retained uses before the next launch runs.
	if cap(e.taskDoneBuf) < numColors {
		e.taskDoneBuf = make([]realm.Event, numColors)
	}
	taskDone := e.taskDoneBuf[:numColors]
	// Real-mode-only state: task contexts (retained by the reduce future's
	// fold closure) and reduction buffers per (color, arg). Modeled mode
	// never touches either, so it skips the allocations.
	var ctxs []*ir.TaskCtx
	var redBufs [][]*region.Store // by color, then argument
	if e.Mode == ir.ExecReal {
		ctxs = make([]*ir.TaskCtx, numColors)
		redBufs = make([][]*region.Store, numColors)
	}

	for idx, target := range st.targets {
		// Gather preconditions and cross-node data movement, argument-major.
		// The scratch slice is safe to recycle because Merge does not retain
		// its inputs.
		pres := e.presBuf[:0]
		if rec != nil {
			drs := rec.deps[idx]
			for i := range drs {
				pres = append(pres, e.move(ts.resolve(&drs[i], idx), target))
			}
		} else {
			for ai := range deps {
				for _, d := range deps[ai][idx] {
					pres = append(pres, e.move(d, target))
				}
			}
		}

		// The control thread pays the per-task analysis and launch cost —
		// the O(N) serial overhead that caps implicit scaling (§1) — plus
		// the region-tree analysis component that grows with subregion
		// count.
		e.ctl.Elapse(e.Over.LaunchBase +
			realm.Time(len(pres))*launchPerDep +
			realm.Time(numColors)*e.Over.LaunchPerSub)

		if target != 0 {
			pres = append(pres, e.Sim.CopyBytes(0, target, remoteStartBytes, realm.NoEvent, nil))
		}

		dur := st.durBase[idx]
		if e.Over.Noise != nil {
			dur = realm.Time(float64(dur) * e.Over.Noise(target, e.curIter))
		}

		var body func()
		if e.Mode == ir.ExecReal {
			ctx, bufs := e.rootArgs.Ctx(l, idx, scalars)
			ctxs[idx], redBufs[idx] = ctx, bufs
			if l.Task.Kernel != nil {
				body = func() { l.Task.Kernel(ctx) }
			}
		}
		taskDone[idx] = e.Sim.LaunchOn(target, e.Sim.Merge(pres...), dur, body)
		e.presBuf = pres[:0]
	}

	// Apply reduction instances: argument-major, per reduce argument in
	// ascending color order (§4.3), with one chain across the whole launch
	// so applications from different arguments to the same element keep the
	// canonical order (see ir.ExecLaunchSeq).
	prev := realm.NoEvent
	for ai, param := range l.Task.Params {
		u := uses[ai]
		copy(u.node, st.targets)
		if param.Priv != ir.PrivReduce {
			copy(u.done, taskDone)
			continue
		}
		for idx, c := range l.Domain {
			var body func()
			if e.Mode == ir.ExecReal {
				sub := l.Args[ai].At(c)
				buf := redBufs[idx][ai]
				global := e.stores[sub.Root()]
				op := param.Op
				fields := param.Fields
				body = func() {
					for _, f := range fields {
						global.ReduceFieldFrom(buf, f, op, sub.IndexSpace())
					}
				}
			}
			node := st.targets[idx]
			prev = e.Sim.CopyBytes(node, node, st.redBytes[ai][idx], e.Sim.Merge(taskDone[idx], prev), body)
			u.done[idx] = prev
		}
	}

	for _, u := range uses {
		e.registerUse(u)
		e.iterEvents = append(e.iterEvents, u.done...)
	}
	if rec != nil {
		ts.cursor++
		e.traceStats.ReplayedLaunches++
	} else if ts != nil && ts.phase == tracePhaseCapture {
		ts.captureLaunch(st, uses, deps)
	}

	// Launch-level scalar reduction: bind the destination variable to a
	// future resolved when all task returns are in, folded in color order.
	if l.Reduce != nil {
		all := e.Sim.Merge(taskDone...)
		op := l.Reduce.Op
		e.env.SetFuture(l.Reduce.Into, all, func() float64 {
			acc := op.Identity()
			for _, ctx := range ctxs {
				if ctx != nil {
					acc = op.Fold(acc, ctx.Return)
				}
			}
			return acc
		})
		e.iterEvents = append(e.iterEvents, all)
	}
}

// move returns the precondition one dependence edge contributes to a task
// on target: the source's completion, behind a copy when the edge carries
// data between nodes.
func (e *Engine) move(d dep, target int) realm.Event {
	if d.bytes > 0 && d.srcNode != target {
		return e.Sim.CopyBytes(d.srcNode, target, d.bytes, d.ev, nil)
	}
	return d.ev
}
