package spmd

// Shard-side trace capture & replay: the SPMD analogue of the implicit
// runtime's loop traces (internal/rt/trace.go). A compiled loop's body is
// structurally identical in every iteration — the cr compiler certifies as
// much with its loop-boundary trace marker — so everything a shard resolves
// per iteration that is NOT event-valued (instance-table lookups, copy pair
// grouping, owner nodes, transfer sizes, kernel cost, Real-mode store
// bindings) is captured into an immutable per-shard plan the first time the
// shard runs under a given placement, and replayed thereafter.
//
// Capture is two-phase. The shard-independent half — kernel durations per
// color, transfer sizes per pair — is a pure function of the compiled plan's
// specialization tables (cr.SpecTable) and the overhead model, so the engine
// captures it ONCE per loop as a sharedTrace, and each shard instantiates
// its concrete plan by table substitution (specialize): owned colors map to
// dense table slots through the compiler's OwnedBase offsets, nodes come
// from the run state's assignment, and only the inherently shard-local
// state (dependence-table entries, Real-mode bindings) is resolved per
// shard. That makes capture cost O(1) per run state where it used to be
// O(shards): re-runs, failover rebuilds, and sweep cells all reuse the one
// shared capture. When the compiler marks a loop unshareable (ragged shard
// partition) or the ablation flag disables sharing, shards fall back to
// direct per-shard capture — the two paths perform identical lookups in
// identical order, so their plans are indistinguishable and every schedule
// stays byte-identical.
//
// The event graph itself is still rebuilt each iteration — events are the
// values that change — but from the plan's resolved pointers: replay walks
// flat slices and instState pointers where interpretation hashed instKey
// and tempKey maps for every argument of every task of every iteration.
// Scalar statements stay live during replay (their values may be
// data-dependent; only structural resolution is memoized), and the Sim
// call sequence is identical to interpretation by construction, so traced
// and untraced runs produce byte-identical schedules.
//
// Invalidation is by construction rather than by fingerprint: plans are
// keyed by (runState, shard), and everything they resolve — tables, node
// assignment, instance stores — is immutable for the runState's lifetime.
// The one thing that changes resolution is shard failover (PR 2 recovery),
// and that rebuilds the runState, discarding every plan with it. The
// sharedTrace survives the rebuild (it depends on nothing the failure
// changed), and the recovery layer ships it to the restarted shard's node
// as a real message (realm.ShipTrace) so the shard specializes and resumes
// in replay mode instead of re-capturing.

import (
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// TraceStats counts the shard-plan activity of one engine run.
type TraceStats struct {
	// Captures counts shared captures: one per compiled loop per engine run
	// when cross-shard sharing is on, independent of the shard count.
	Captures int
	// PerShardCaptures counts direct per-shard captures — the fallback when
	// sharing is disabled or the compiler marked the loop unshareable
	// (O(shards) per runState; failover rebuilds count again).
	PerShardCaptures int
	// Specializations counts shard plans instantiated from a shared capture
	// by table substitution.
	Specializations int
	// ReplayedIters is the total number of shard-iterations executed from a
	// plan instead of interpreted.
	ReplayedIters int
	// Invalidations counts shard plans discarded when failover rebuilt the
	// run state under a new placement.
	Invalidations int
	// Ships counts shared traces shipped to restarted shards on failover;
	// ShippedBytes is their total modeled wire size.
	Ships        int
	ShippedBytes int64
}

// sharedTrace is the shard-independent half of a compiled loop's plan:
// kernel durations dense by collective color index and transfer sizes dense
// by pair index. Captured once per loop per engine from the compiler's
// specialization tables — no Sim calls, no shard state — so it survives
// failover rebuilds and is what the recovery layer ships to restarted
// shards.
type sharedTrace struct {
	ops []sharedOp
	// bytes is the modeled wire size of the trace when shipped on failover:
	// 8 bytes per table entry plus a fixed per-op header.
	bytes int64
}

// sharedOp mirrors cr.BodyOp; at most one field is set (scalar ops carry no
// shared state).
type sharedOp struct {
	launch *sharedLaunch
	cp     *sharedCopy
}

type sharedLaunch struct {
	durBase []realm.Time // kernel cost before noise, dense by ColorIdx
}

type sharedCopy struct {
	bytes []int64 // transfer size, dense by pair index
}

// sharedOpHeader is the modeled per-op framing cost of a shipped trace.
const sharedOpHeader = 16

// sharedFor returns the engine's shared capture of plan, building it on
// first use. The build reads only the compiler's specialization tables and
// the overhead model, so one capture serves every shard, every runState,
// and every failover rebuild of the engine's run.
func (e *Engine) sharedFor(plan *cr.Compiled) *sharedTrace {
	if shr, ok := e.shared[plan]; ok {
		return shr
	}
	shr := &sharedTrace{ops: make([]sharedOp, len(plan.Body))}
	for i, op := range plan.Body {
		spec := &plan.Spec.Ops[i]
		switch {
		case op.Launch != nil:
			sl := &sharedLaunch{durBase: make([]realm.Time, len(spec.Launch.CostVol))}
			for ci, vol := range spec.Launch.CostVol {
				sl.durBase[ci] = realm.Time(op.Launch.Task.Cost(vol) / float64(e.Over.KernelCores))
			}
			shr.ops[i].launch = sl
			shr.bytes += int64(8*len(sl.durBase)) + sharedOpHeader
		case op.Copy != nil:
			scale := e.Over.EltBytes * int64(len(op.Copy.Fields))
			sc := &sharedCopy{bytes: make([]int64, len(spec.Copy.PairVols))}
			for k, v := range spec.Copy.PairVols {
				sc.bytes[k] = v * scale
			}
			shr.ops[i].cp = sc
			shr.bytes += int64(8*len(sc.bytes)) + sharedOpHeader
		default:
			shr.bytes += sharedOpHeader
		}
	}
	if e.shared == nil {
		e.shared = make(map[*cr.Compiled]*sharedTrace)
	}
	e.shared[plan] = shr
	e.traceStats.Captures++
	return shr
}

// logShareFallback reports, once per loop per run, why a loop with sharing
// enabled fell back to per-shard capture.
func (e *Engine) logShareFallback(plan *cr.Compiled) {
	if e.shareLogged[plan] {
		return
	}
	if e.shareLogged == nil {
		e.shareLogged = make(map[*cr.Compiled]bool)
	}
	e.shareLogged[plan] = true
	if e.ShareLog != nil {
		e.ShareLog("trace sharing disabled for loop: " + plan.Spec.Share.Reason)
	}
}

// shardPlan is one shard's memoized iteration: the body ops with all
// non-event resolution done.
type shardPlan struct {
	ops []planOp
}

// planOp mirrors cr.BodyOp; exactly one field is set. Under Options.Agg a
// whole exchange phase is resolved into one phase entry at its head op
// and the phase's remaining copy ops emit no planOp at all.
type planOp struct {
	set    *ir.SetScalar
	launch *launchPlan
	cp     *copyPlan
	phase  *phasePlan
}

// launchPlan is a launch op resolved for one shard: its owned colors with
// per-color argument states and kernel costs.
type launchPlan struct {
	l      *ir.Launch
	reduce bool
	nodeID int
	colors []launchColorPlan
}

type launchColorPlan struct {
	col     geometry.Point
	colIdx  int        // position in the global domain (collective index)
	durBase realm.Time // kernel cost before noise
	args    []argPlan
	// Real-mode bindings: the physical arguments (iteration-invariant —
	// ir.PhysArg is immutable, so the slice is shared by every iteration's
	// task context), the footprints the kernel resolves over them, and the
	// reduce-temp re-initializers.
	physArgs   []ir.PhysArg
	footprints *ir.FootprintCache
	reinits    []func()
}

// argPlan is one region argument's dependence state: reads append to
// readers, writes and reductions advance lastWrite (reductions against the
// launch's private temporary, which capture resolved into st).
type argPlan struct {
	priv ir.Privilege
	st   *instState
}

// copyPlan is a copy op resolved for one shard: its slice of the pair work
// with states, nodes, sizes, and Real-mode bodies bound.
type copyPlan struct {
	id    int
	works []copyWorkPlan
}

type copyWorkPlan struct {
	consumer             bool
	dstState             *instState // set when consumer
	groupStart, groupEnd int        // absolute pair index range of the group
	prods                []copyProdPlan
}

type copyProdPlan struct {
	copyID           int // owning copy op's ID (members of a phase group span ops)
	pairIdx          int
	chain            bool // fold-chain link: also wait on pairIdx-1's done
	reduce           bool // the owning op is a reduction copy
	srcState         *instState
	bytes            int64
	srcNode, dstNode int
	body             func() // Real-mode transfer body; iteration-invariant
}

// copyAggPlan is one coalesced transfer: every pair this shard produces
// toward one destination shard across one exchange phase, merged into a
// single message. The members keep their per-pair resolution (dependence
// state, sync slots keyed by their own op's ID, chain links, bodies);
// bytes is the summed payload and body runs the member writes in member
// order — the unaggregated issue order — so stores are bitwise identical
// aggregation on or off.
type copyAggPlan struct {
	members          []copyProdPlan
	bytes            int64
	srcNode, dstNode int
	body             func() // merged Real-mode body; iteration-invariant
}

// phasePlan is one exchange phase resolved for one shard under
// aggregation: the per-op consumer work (per-pair sync structure survives
// coalescing untouched) and the shard's coalesced producer schedule over
// the whole phase. It is emitted at the phase's head op; the phase's other
// copy ops emit no planOp.
type phasePlan struct {
	cons []phaseConsumerPlan
	aggs []copyAggPlan
}

// phaseConsumerPlan is one phase op's consumer-side work for this shard.
type phaseConsumerPlan struct {
	id    int // the op's CopyOp.ID
	works []copyWorkPlan
}

// planFor returns the shard's memoized plan, specializing the engine's
// shared capture on first use (or capturing directly when sharing is off or
// the compiler marked the loop unshareable). Returns nil when tracing is
// off or the loop is untraceable. The ablation barrier lowering also runs
// interpreted: it is the naive baseline and stays byte-for-byte the naive
// code path.
func (st *runState) planFor(sh *shard) *shardPlan {
	e := st.e
	if e.NoTrace || !st.plan.Trace.Traceable || st.plan.Opts.Sync == cr.BarrierSync {
		return nil
	}
	// planMu serializes capture/specialization across shard agents (they
	// resolve concurrently on the native backend) and guards the engine's
	// shared-capture cache and counters. Capture happens once per shard per
	// placement, so the serialization is off the steady-state path.
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if sp := st.plans[sh.me]; sp != nil {
		return sp
	}
	var sp *shardPlan
	if !e.NoShare && st.plan.Spec.Share.Shareable {
		sp = st.specialize(sh, e.sharedFor(st.plan))
		e.traceStats.Specializations++
	} else {
		if !e.NoShare {
			e.logShareFallback(st.plan)
		}
		sp = st.capture(sh)
		e.traceStats.PerShardCaptures++
	}
	st.plans[sh.me] = sp
	return sp
}

// dropPlans discards every memoized shard plan and reports how many were
// live: the trace invalidation of a failover rebuild, after which the new
// placement re-resolves nodes and states (by re-specializing the surviving
// shared capture when sharing is on).
func (st *runState) dropPlans() int {
	n := 0
	for i, sp := range st.plans {
		if sp != nil {
			st.plans[i] = nil
			n++
		}
	}
	return n
}

// capture resolves the compiled body for one shard directly. It performs
// exactly the lookups interpretation would perform on the first iteration
// (creating the same table entries and Real-mode temporaries, in the same
// order), so the side effects on the shard table are identical.
func (st *runState) capture(sh *shard) *shardPlan {
	sp := &shardPlan{ops: make([]planOp, 0, len(st.plan.Body))}
	spec := &st.plan.Spec
	for i, op := range st.plan.Body {
		switch {
		case op.Set != nil:
			sp.ops = append(sp.ops, planOp{set: op.Set})
		case op.Launch != nil:
			sp.ops = append(sp.ops, planOp{launch: st.captureLaunch(sh, op.Launch)})
		case op.Copy != nil:
			if st.plan.Opts.Agg {
				// The whole exchange phase resolves at its head op; the
				// phase's remaining copies emit nothing.
				if ph := &spec.Phases[spec.PhaseOf[i]]; ph.Start == i {
					sp.ops = append(sp.ops, planOp{phase: st.resolvePhasePlan(sh, ph, st.interpAggBytes)})
				}
				continue
			}
			sp.ops = append(sp.ops, planOp{cp: st.captureCopy(sh, op.Copy)})
		}
	}
	return sp
}

// specialize instantiates one shard's concrete plan from the shared
// capture by table substitution: owned colors map to dense slots through
// the compiler's OwnedBase offset, durations and transfer sizes come from
// the shared tables, nodes from the runState's assignment. The shard-local
// resolution (dependence states, Real-mode bindings) runs through the same
// helpers as direct capture, in the same order, so a specialized plan is
// indistinguishable from a captured one.
func (st *runState) specialize(sh *shard, shr *sharedTrace) *shardPlan {
	sp := &shardPlan{ops: make([]planOp, 0, len(st.plan.Body))}
	spec := &st.plan.Spec
	for i, op := range st.plan.Body {
		switch {
		case op.Set != nil:
			sp.ops = append(sp.ops, planOp{set: op.Set})
		case op.Launch != nil:
			sp.ops = append(sp.ops, planOp{launch: st.specializeLaunch(sh, op.Launch, shr.ops[i].launch)})
		case op.Copy != nil:
			if st.plan.Opts.Agg {
				if ph := &spec.Phases[spec.PhaseOf[i]]; ph.Start == i {
					sp.ops = append(sp.ops, planOp{phase: st.resolvePhasePlan(sh, ph,
						func(op, k int) int64 { return shr.ops[op].cp.bytes[k] })})
				}
				continue
			}
			sp.ops = append(sp.ops, planOp{cp: st.specializeCopy(sh, op.Copy, shr.ops[i].cp)})
		}
	}
	return sp
}

// tempStore returns the Real-mode reduce temporary for tk, creating it on
// first use. The temps map is shared across shards, so creation is locked;
// the returned store itself is only ever touched under event ordering.
func (st *runState) tempStore(tk tempKey, sub *region.Region) *region.Store {
	st.mu.Lock()
	buf, ok := st.temps[tk]
	if !ok {
		buf = region.NewStore(sub.IndexSpace(), st.e.Prog.FieldSpaceOf(sub))
		st.temps[tk] = buf
	}
	st.mu.Unlock()
	return buf
}

// resolveLaunchArgs fills one color's argument states and Real-mode
// bindings. Shared by direct capture and specialization so both create the
// same shard-table entries and temporaries in the same order.
func (st *runState) resolveLaunchArgs(sh *shard, l *ir.Launch, col geometry.Point, cp *launchColorPlan) {
	e := st.e
	for ai, a := range l.Args {
		param := l.Task.Params[ai]
		ap := argPlan{priv: param.Priv}
		if param.Priv == ir.PrivReduce {
			ap.st = sh.table.getTemp(tempKey{l, ai, col})
		} else {
			ap.st = sh.table.get(instKey{a.Part.ID(), col})
		}
		cp.args = append(cp.args, ap)
		if e.Mode == ir.ExecReal {
			if cp.footprints == nil {
				cp.footprints = &ir.FootprintCache{}
			}
			sub := a.Part.Sub(col)
			if param.Priv == ir.PrivReduce {
				buf := st.tempStore(tempKey{l, ai, col}, sub)
				cp.physArgs = append(cp.physArgs, ir.NewPhysArg(sub, buf, param))
				fields, op := param.Fields, param.Op
				cp.reinits = append(cp.reinits, func() {
					for _, f := range fields {
						buf.Fill(f, op.Identity())
					}
				})
			} else {
				cp.physArgs = append(cp.physArgs, ir.NewPhysArg(sub, st.inst[instKey{a.Part.ID(), col}], param))
			}
		}
	}
}

func (st *runState) captureLaunch(sh *shard, l *ir.Launch) *launchPlan {
	e := st.e
	lp := &launchPlan{
		l:      l,
		reduce: l.Reduce != nil,
		nodeID: st.nodeOfShard(sh.me),
	}
	for _, col := range st.plan.Owned[sh.me] {
		vol := l.Args[l.Task.CostArg].At(col).Volume()
		cp := launchColorPlan{
			col:     col,
			colIdx:  st.plan.ColorIdx[col],
			durBase: realm.Time(l.Task.Cost(vol) / float64(e.Over.KernelCores)),
		}
		st.resolveLaunchArgs(sh, l, col, &cp)
		lp.colors = append(lp.colors, cp)
	}
	return lp
}

// specializeLaunch mirrors captureLaunch with the per-color arithmetic
// replaced by shared-table lookups: owned color k is dense slot
// OwnedBase[shard]+k, and its duration was computed once for all shards.
func (st *runState) specializeLaunch(sh *shard, l *ir.Launch, shl *sharedLaunch) *launchPlan {
	lp := &launchPlan{
		l:      l,
		reduce: l.Reduce != nil,
		nodeID: st.nodeOfShard(sh.me),
	}
	base := st.plan.Spec.OwnedBase[sh.me]
	for k, col := range st.plan.Owned[sh.me] {
		cp := launchColorPlan{
			col:     col,
			colIdx:  base + k,
			durBase: shl.durBase[base+k],
		}
		st.resolveLaunchArgs(sh, l, col, &cp)
		lp.colors = append(lp.colors, cp)
	}
	return lp
}

// resolveProdPlan fills one produced pair's dependence state and Real-mode
// transfer body. Shared by direct capture and specialization.
func (st *runState) resolveProdPlan(sh *shard, cp *cr.CopyOp, k int, chain bool, bytes int64, srcNode, dstNode int) copyProdPlan {
	e := st.e
	pr := cp.Pairs[k]
	p := copyProdPlan{
		copyID:  cp.ID,
		pairIdx: k,
		chain:   chain,
		reduce:  cp.Reduce != region.ReduceNone,
		bytes:   bytes,
		srcNode: srcNode,
		dstNode: dstNode,
	}
	if cp.Reduce == region.ReduceNone {
		p.srcState = sh.table.get(instKey{cp.Src.ID(), pr.Src})
		if e.Mode == ir.ExecReal {
			src := st.inst[instKey{cp.Src.ID(), pr.Src}]
			dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
			fields, overlap := cp.Fields, pr.Overlap
			p.body = func() {
				for _, f := range fields {
					dst.CopyFieldFrom(src, f, overlap)
				}
			}
		}
	} else {
		p.srcState = sh.table.getTemp(tempKey{cp.SrcLaunch, cp.SrcArg, pr.Src})
		if e.Mode == ir.ExecReal {
			buf := st.tempStore(tempKey{cp.SrcLaunch, cp.SrcArg, pr.Src}, cp.Src.Sub(pr.Src))
			dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
			fields, op, overlap := cp.Fields, cp.Reduce, pr.Overlap
			p.body = func() {
				for _, f := range fields {
					dst.ReduceFieldFrom(buf, f, op, overlap)
				}
			}
		}
	}
	return p
}

// resolvePhaseAggs builds the shard's coalesced producer schedule of one
// exchange phase from the compiler's aggregation tables: one copyAggPlan
// per destination shard, members (which may span the phase's copy ops)
// resolved through the same resolveProdPlan as the unaggregated paths.
// bytesOf supplies a member's wire size by (body op index, pair index) —
// computed during interpretation/capture, shared-table lookup during
// specialization. Shared by the interpreter (both lowerings), direct
// capture, and specialization, so all three resolve identical groups and
// create identical shard-table entries in identical order.
func (st *runState) resolvePhaseAggs(sh *shard, ph *cr.AggPhase, bytesOf func(op, k int) int64) []copyAggPlan {
	srcNode := st.nodeOfShard(sh.me)
	groups := ph.ByShard[sh.me]
	out := make([]copyAggPlan, 0, len(groups))
	for gi := range groups {
		g := &groups[gi]
		ap := copyAggPlan{srcNode: srcNode, dstNode: st.nodeOfShard(int(g.DstShard))}
		for _, mem := range g.Members {
			cp := st.plan.Body[mem.Op].Copy
			spec := st.plan.Spec.Ops[mem.Op].Copy
			k := int(mem.Pair)
			chain := cp.Reduce != region.ReduceNone && cr.AggChainExternal(cp, spec, k)
			m := st.resolveProdPlan(sh, cp, k, chain, bytesOf(int(mem.Op), k), ap.srcNode, ap.dstNode)
			ap.bytes += m.bytes
			ap.members = append(ap.members, m)
		}
		if st.e.Mode == ir.ExecReal {
			ms := ap.members
			ap.body = func() {
				for i := range ms {
					ms[i].body()
				}
			}
		}
		out = append(out, ap)
	}
	return out
}

// resolvePhasePlan resolves one exchange phase for one shard: each op's
// consumer work in body order (exactly the lookups the interpreter's
// consumer pass performs, in the same order), then the phase's coalesced
// producer groups. Shared by direct capture and specialization — only the
// bytesOf source differs.
func (st *runState) resolvePhasePlan(sh *shard, ph *cr.AggPhase, bytesOf func(op, k int) int64) *phasePlan {
	pp := &phasePlan{}
	for op := ph.Start; op < ph.End; op++ {
		cp := st.plan.Body[op].Copy
		cons := phaseConsumerPlan{id: cp.ID}
		for _, work := range st.copyWork(cp.ID, sh.me) {
			if !work.Consumer {
				continue
			}
			cons.works = append(cons.works, copyWorkPlan{
				consumer:   true,
				dstState:   sh.table.get(instKey{cp.Dst.ID(), cp.Pairs[work.GroupStart].Dst}),
				groupStart: work.GroupStart,
				groupEnd:   work.GroupEnd,
			})
		}
		pp.cons = append(pp.cons, cons)
	}
	pp.aggs = st.resolvePhaseAggs(sh, ph, bytesOf)
	return pp
}

// interpAggBytes computes a member pair's wire size from the compiled body
// — the interpreter's and direct capture's bytesOf for resolvePhaseAggs.
func (st *runState) interpAggBytes(op, k int) int64 {
	cp := st.plan.Body[op].Copy
	return cp.Pairs[k].Overlap.Volume() * st.e.Over.EltBytes * int64(len(cp.Fields))
}

func (st *runState) captureCopy(sh *shard, cp *cr.CopyOp) *copyPlan {
	e := st.e
	pairs := cp.Pairs
	out := &copyPlan{id: cp.ID}
	reduce := cp.Reduce != region.ReduceNone
	for _, work := range st.copyWork(cp.ID, sh.me) {
		w := copyWorkPlan{consumer: work.Consumer, groupStart: work.GroupStart, groupEnd: work.GroupEnd}
		if work.Consumer {
			w.dstState = sh.table.get(instKey{cp.Dst.ID(), pairs[work.GroupStart].Dst})
		}
		for _, k := range work.ProdPairs {
			pr := pairs[k]
			bytes := pr.Overlap.Volume() * e.Over.EltBytes * int64(len(cp.Fields))
			chain := reduce && k > work.GroupStart && !st.plan.Prune.SkipChain(cp.ID, k)
			w.prods = append(w.prods, st.resolveProdPlan(sh, cp, k, chain, bytes,
				st.ownerNode(pr.Src), st.ownerNode(pr.Dst)))
		}
		out.works = append(out.works, w)
	}
	return out
}

// specializeCopy mirrors captureCopy with the per-pair arithmetic replaced
// by shared-table lookups: transfer sizes come from the shared capture, and
// endpoint nodes from the compiler's pair-endpoint shard tables composed
// with the runState's assignment.
func (st *runState) specializeCopy(sh *shard, cp *cr.CopyOp, shc *sharedCopy) *copyPlan {
	pairs := cp.Pairs
	spec := st.plan.Spec.CopyByID[cp.ID]
	out := &copyPlan{id: cp.ID}
	reduce := cp.Reduce != region.ReduceNone
	for _, work := range spec.PerShard[sh.me] {
		w := copyWorkPlan{consumer: work.Consumer, groupStart: work.GroupStart, groupEnd: work.GroupEnd}
		if work.Consumer {
			w.dstState = sh.table.get(instKey{cp.Dst.ID(), pairs[work.GroupStart].Dst})
		}
		for _, k := range work.ProdPairs {
			chain := reduce && k > work.GroupStart && !st.plan.Prune.SkipChain(cp.ID, k)
			w.prods = append(w.prods, st.resolveProdPlan(sh, cp, k, chain, shc.bytes[k],
				st.assign[spec.SrcShard[k]], st.assign[spec.DstShard[k]]))
		}
		out.works = append(out.works, w)
	}
	return out
}

// replayIter executes one iteration's body from the plan: the same Sim call
// sequence as the interpreted body, with all resolution precomputed.
func (sh *shard) replayIter(sp *shardPlan, iter int) {
	for i := range sp.ops {
		op := &sp.ops[i]
		switch {
		case op.set != nil:
			sh.env.set(op.set.Name, op.set.Expr(sh.env))
		case op.launch != nil:
			sh.replayLaunch(op.launch, iter)
		case op.cp != nil:
			sh.replayCopy(op.cp, iter)
		case op.phase != nil:
			sh.replayPhase(op.phase, iter)
		}
	}
	e := sh.st.e
	e.planMu.Lock()
	e.traceStats.ReplayedIters++
	e.planMu.Unlock()
}

// replayLaunch mirrors shard.doLaunch over the resolved plan.
func (sh *shard) replayLaunch(lp *launchPlan, iter int) {
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

	localDone := sh.doneBuf[:0]
	ctxs := sh.ctxBuf[:0]
	for ci := range lp.colors {
		cp := &lp.colors[ci]
		sh.th.Elapse(e.Over.ShardLaunchBase)
		pres := sh.presBuf[:0]
		for _, a := range cp.args {
			if a.priv == ir.PrivRead {
				pres = append(pres, a.st.lastWrite)
			} else {
				pres = append(pres, a.st.lastWrite)
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
		if lp.reduce {
			localDone = append(localDone, done)
			ctxs = append(ctxs, ctx)
		}
		sh.ops = append(sh.ops, done)
	}
	sh.doneBuf, sh.ctxBuf = localDone[:0], ctxs[:0]

	if lp.reduce {
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
		sh.env.setFuture(l.Reduce.Into, coll.Done(), coll.Result)
		sh.ops = append(sh.ops, coll.Done())
	}
}

// replayCopy mirrors shard.doCopyP2P over the resolved plan.
func (sh *shard) replayCopy(cpl *copyPlan, iter int) {
	st := sh.st
	e := st.e
	prune := st.plan.Prune
	for wi := range cpl.works {
		w := &cpl.works[wi]
		if w.consumer {
			s := w.dstState
			rel := append(sh.evBuf[:0], s.readers...)
			rel = append(rel, s.lastWrite)
			release := e.Sim.Merge(rel...)
			newWrites := append(sh.wrBuf[:0], s.lastWrite)
			for k := w.groupStart; k < w.groupEnd; k++ {
				ps := st.pairSyncFor(cpl.id, k, iter)
				if !prune.SkipWar(cpl.id, k) {
					st.connect(release, ps.war)
				}
				if !prune.SkipDone(cpl.id, k) {
					newWrites = append(newWrites, ps.done)
					sh.ops = append(sh.ops, ps.done)
				}
			}
			s.lastWrite = e.Sim.Merge(newWrites...)
			s.readers = s.readers[:0]
			sh.evBuf, sh.wrBuf = rel[:0], newWrites[:0]
		}
		for pi := range w.prods {
			p := &w.prods[pi]
			ps := st.pairSyncFor(cpl.id, p.pairIdx, iter)
			sh.th.Elapse(e.Over.CopySetup)
			pres := sh.presBuf[:0]
			if !prune.SkipWar(cpl.id, p.pairIdx) {
				pres = append(pres, ps.war)
			}
			pres = append(pres, p.srcState.lastWrite)
			if p.chain {
				pres = append(pres, st.pairSyncFor(cpl.id, p.pairIdx-1, iter).done)
			}
			ev := e.Sim.CopyBytes(p.srcNode, p.dstNode, p.bytes, e.Sim.Merge(pres...), p.body)
			p.srcState.readers = append(p.srcState.readers, ev)
			sh.presBuf = pres[:0]
			if prune.SkipDone(cpl.id, p.pairIdx) {
				// Done pruned: merge the copy's own completion instead (see
				// shard.doCopyP2P) so loop-end quiescence still covers it.
				sh.ops = append(sh.ops, ev)
			} else {
				st.connect(ev, ps.done)
				sh.ops = append(sh.ops, ps.done)
			}
		}
	}
}

// replayPhase mirrors shard.doPhaseP2PAgg over the resolved plan: every
// phase op's unaggregated consumer blocks in body order (per-pair sync
// events survive coalescing, and pruning never composes with aggregation,
// so there are no Skip checks), then one merged issue per precomputed
// group.
func (sh *shard) replayPhase(pp *phasePlan, iter int) {
	st := sh.st
	e := st.e
	for ci := range pp.cons {
		cons := &pp.cons[ci]
		for wi := range cons.works {
			w := &cons.works[wi]
			s := w.dstState
			rel := append(sh.evBuf[:0], s.readers...)
			rel = append(rel, s.lastWrite)
			release := e.Sim.Merge(rel...)
			newWrites := append(sh.wrBuf[:0], s.lastWrite)
			for k := w.groupStart; k < w.groupEnd; k++ {
				ps := st.pairSyncFor(cons.id, k, iter)
				st.connect(release, ps.war)
				newWrites = append(newWrites, ps.done)
				sh.ops = append(sh.ops, ps.done)
			}
			s.lastWrite = e.Sim.Merge(newWrites...)
			s.readers = s.readers[:0]
			sh.evBuf, sh.wrBuf = rel[:0], newWrites[:0]
		}
	}
	sh.issueAggGroups(pp.aggs, iter)
}
