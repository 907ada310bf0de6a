package rt

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// issueLaunch performs an index launch: dynamic dependence analysis, the
// per-task control-thread overhead, task-start messages to remote nodes,
// RAW data movement, deferred task execution, region-reduction instance
// application (§4.3), and launch-level scalar reduction into a future
// (§4.4).
func (e *Engine) issueLaunch(l *ir.Launch) {
	// The intra-launch conflict check depends only on the launch's static
	// declaration, so it runs once per launch site, not once per iteration.
	if !e.checkedLaunch[l] {
		e.checkIntraLaunchConflicts(l)
		e.checkedLaunch[l] = true
	}

	env := e.ctlEnv()
	scalars := make([]float64, len(l.ScalarArgs))
	for i, ex := range l.ScalarArgs {
		scalars[i] = ex(env) // forces future-valued scalars
	}

	numColors := len(l.Domain)
	nodes := e.Sim.Nodes()
	domIdx := e.domainIndex(l)
	fsets := e.fieldSetsFor(l.Task)

	// Analysis: one new use per region argument; task-level dependencies
	// refined from partition-level aliasing. The uses are retained in the
	// epoch lists, so they are real allocations; everything else in this
	// function is per-launch scratch.
	uses := make([]*use, len(l.Args))
	deps := make([][][]dep, len(l.Args))
	for ai, a := range l.Args {
		param := l.Task.Params[ai]
		u := &use{
			part:   a.Part,
			priv:   param.Priv,
			op:     param.Op,
			fields: fsets[ai],
			full:   numColors == len(a.Part.Colors()),
			domIdx: domIdx,
			done:   make([]realm.Event, numColors),
			node:   make([]int, numColors),
		}
		deps[ai] = e.depsForArg(u, l.Domain, domIdx)
		uses[ai] = u
	}

	// taskDone/taskNode are recycled across launches: their values are
	// copied into the retained uses before the next launch runs.
	if cap(e.taskDoneBuf) < numColors {
		e.taskDoneBuf = make([]realm.Event, numColors)
		e.taskNodeBuf = make([]int, numColors)
	}
	taskDone := e.taskDoneBuf[:numColors]
	taskNode := e.taskNodeBuf[:numColors]
	// Real-mode-only state: task contexts (retained by the reduce future's
	// fold closure) and reduction buffers per (color, arg). Modeled mode
	// never touches either, so it skips the allocations.
	var ctxs []*ir.TaskCtx
	var redBufs [][]*region.Store // by color, then argument
	if e.Mode == Real {
		ctxs = make([]*ir.TaskCtx, numColors)
		redBufs = make([][]*region.Store, numColors)
	}

	for idx, c := range l.Domain {
		target := e.Map.NodeFor(idx, numColors, nodes)
		taskNode[idx] = target

		// Gather preconditions and cross-node data movement. The scratch
		// slice is safe to recycle because Merge does not retain its inputs.
		pres := e.presBuf[:0]
		nDeps := 0
		for ai := range l.Args {
			for _, d := range deps[ai][idx] {
				nDeps++
				if d.bytes > 0 && d.srcNode != target {
					pres = append(pres, e.Sim.CopyBytes(d.srcNode, target, d.bytes, d.ev, nil))
				} else {
					pres = append(pres, d.ev)
				}
			}
		}

		// The control thread pays the per-task analysis and launch cost —
		// the O(N) serial overhead that caps implicit scaling (§1) — plus
		// the region-tree analysis component that grows with subregion
		// count.
		e.ctl.Elapse(e.Over.LaunchBase +
			realm.Time(nDeps)*e.Over.LaunchPerDep +
			realm.Time(numColors)*e.Over.LaunchPerSub)

		if target != 0 {
			pres = append(pres, e.Sim.CopyBytes(0, target, e.Over.RemoteStartBytes, realm.NoEvent, nil))
		}

		vol := l.Args[l.Task.CostArg].At(c).Volume()
		dur := realm.Time(l.Task.Cost(vol) / float64(e.Over.KernelCores))
		if e.Over.Noise != nil {
			dur = realm.Time(float64(dur) * e.Over.Noise(target, e.curIter))
		}

		var body func()
		if e.Mode == Real {
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
		if param.Priv != ir.PrivReduce {
			copy(u.done, taskDone)
			copy(u.node, taskNode)
			continue
		}
		for idx, c := range l.Domain {
			idx, c := idx, c
			sub := l.Args[ai].At(c)
			bytes := sub.Volume() * e.Over.EltBytes * int64(len(param.Fields))
			var body func()
			if e.Mode == Real {
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
			pre := e.Sim.Merge(taskDone[idx], prev)
			applied := e.Sim.CopyBytes(taskNode[idx], taskNode[idx], bytes, pre, body)
			u.done[idx] = applied
			u.node[idx] = taskNode[idx]
			prev = applied
		}
	}

	for _, u := range uses {
		e.registerUse(u)
		e.iterEvents = append(e.iterEvents, u.done...)
	}

	// Record the analyzed launch into the active trace candidate, if one is
	// being captured (see trace.go).
	if ts := e.trace; ts != nil && ts.phase == tracePhaseCapture {
		e.captureLaunch(ts, l, uses, deps)
	}

	// Launch-level scalar reduction: bind the destination variable to a
	// future resolved when all task returns are in, folded in color order.
	if l.Reduce != nil {
		all := e.Sim.Merge(taskDone...)
		op := l.Reduce.Op
		e.env[l.Reduce.Into] = &scalarVal{
			ev: all,
			val: func() float64 {
				acc := op.Identity()
				for _, ctx := range ctxs {
					if ctx != nil {
						acc = op.Fold(acc, ctx.Return)
					}
				}
				return acc
			},
		}
		e.iterEvents = append(e.iterEvents, all)
	}
}

// checkIntraLaunchConflicts rejects launches whose own arguments conflict
// with each other on aliased data; the engine's analysis orders launches
// against prior launches, and tasks within one launch must be independent
// (the §2.2 target form: forall loops with no loop-carried dependencies).
// The single allowed exception is two arguments naming the same disjoint
// partition with the identity projection: each task then sees the same
// subregion through both arguments, which is internally sequential.
func (e *Engine) checkIntraLaunchConflicts(l *ir.Launch) {
	for i, a := range l.Args {
		if l.Task.Params[i].Priv == ir.PrivReadWrite && !a.Part.Disjoint() {
			panic(fmt.Sprintf("rt: launch %s writes aliased partition %s; tasks of one launch must be independent (use a reduction)", l.Task.Name, a.Part.Name()))
		}
	}
	fsets := e.fieldSetsFor(l.Task)
	for i := range l.Args {
		for j := i + 1; j < len(l.Args); j++ {
			pi, pj := l.Task.Params[i], l.Task.Params[j]
			if fieldsOverlapCount(fsets[i], fsets[j]) == 0 {
				continue
			}
			if !ir.Conflicts(pi.Priv, pi.Op, pj.Priv, pj.Op) {
				continue
			}
			ai, aj := l.Args[i], l.Args[j]
			if ai.Part == aj.Part && ai.Part.Disjoint() && ai.Identity() && aj.Identity() {
				continue
			}
			if !region.PartitionsMayAlias(ai.Part, aj.Part) {
				continue
			}
			panic(fmt.Sprintf("rt: launch %s has conflicting aliased arguments %d and %d", l.Task.Name, i, j))
		}
	}
}

func fieldSet(fs []region.FieldID) map[region.FieldID]bool {
	m := make(map[region.FieldID]bool, len(fs))
	for _, f := range fs {
		m[f] = true
	}
	return m
}

// domainIndex returns (and caches per launch site) the color -> position
// index of the launch's domain. Launch domains are static IR, so every
// iteration of a loop re-issues the same *ir.Launch with the same domain.
func (e *Engine) domainIndex(l *ir.Launch) map[geometry.Point]int {
	if m, ok := e.domIdxCache[l]; ok {
		return m
	}
	m := make(map[geometry.Point]int, len(l.Domain))
	for i, c := range l.Domain {
		m[c] = i
	}
	e.domIdxCache[l] = m
	return m
}

// fieldSetsFor returns (and caches per task declaration) each parameter's
// field set. The sets are read-only and shared between all uses of the task.
func (e *Engine) fieldSetsFor(t *ir.TaskDecl) []map[region.FieldID]bool {
	if fs, ok := e.fieldSets[t]; ok {
		return fs
	}
	fs := make([]map[region.FieldID]bool, len(t.Params))
	for i, p := range t.Params {
		fs[i] = fieldSet(p.Fields)
	}
	e.fieldSets[t] = fs
	return fs
}
