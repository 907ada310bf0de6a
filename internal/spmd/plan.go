package spmd

// Shard plans: resolve → shardPlan → execute is the only way a shard runs
// an iteration. A compiled loop's body is structurally identical in every
// iteration — the body op list, copy pair lists and shard ownership are
// fixed at compile time — so everything a shard needs per iteration that is
// NOT event-valued (instance-table lookups, copy pair grouping, owner nodes,
// transfer sizes, kernel cost, Real-mode store bindings) is resolved into a
// shardPlan by one function, resolve, and the one executor in shard.go
// rebuilds the event graph from the plan's flat slices and instState
// pointers. Scalar statements stay live in the executor (their values may be
// data-dependent; only structural resolution is planned).
//
// Memoization has one rule: a shard's plan is memoized iff NoTrace is
// unset. Then the shard resolves once per placement and every iteration
// executes the same plan — the SPMD analogue of the implicit runtime's loop
// traces (internal/rt/trace.go) — whatever the sync lowering, trip count or
// block shape. With NoTrace the shard calls resolve afresh every iteration
// and runs the result through the same executor, so the ablation measures
// the host cost of resolving every iteration instead of once and cannot
// drift from the default path. A re-resolved plan is a fresh value:
// Real-mode bodies run deferred and the run-ahead window keeps several
// iterations in flight, so nothing a plan owns is pooled or reused.
//
// Sharing has one rule too: a memoized loop records its one shared capture
// iff NoShare is unset. Resolution has one source for its shard-independent
// look-ups: kernel cost per color and transfer volume per pair are read
// from the compiler's specialization tables (cr.SpecTable), which
// verify.CheckSpec proves equal to the geometric recomputation. What
// sharing adds is only accounting: the engine records the loop's shared
// capture once per run — its modeled wire size — and counts each shard
// plan as a specialization of it; with NoShare each shard plan counts as a
// per-shard capture. Either way resolve runs the same code, so the plans
// and every schedule are identical.
//
// Invalidation is by construction rather than by fingerprint: plans are
// keyed by (runState, shard), and everything they resolve — tables, node
// assignment, instance stores — is immutable for the runState's lifetime.
// The one thing that changes resolution is shard failover, and that
// rebuilds the runState, discarding every plan with it. The shared capture
// survives the rebuild (it depends on nothing the failure changed), and the
// recovery layer ships it to the restarted shards' nodes as a real message
// (realm.ShipTrace) before they re-resolve.

import (
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// TraceStats counts the memoized shard-plan activity of one engine run; a
// run that re-resolves every iteration reports the zero value.
type TraceStats struct {
	// Captures counts shared captures: one per compiled loop per engine run
	// when cross-shard sharing is on, independent of the shard count.
	Captures int
	// PerShardCaptures counts shard plans resolved without a shared capture
	// — sharing disabled (O(shards) per runState; failover rebuilds count
	// again).
	PerShardCaptures int
	// Specializations counts shard plans resolved under a shared capture.
	Specializations int
	// ReplayedIters is the total number of shard-iterations executed from a
	// memoized plan instead of a freshly resolved one.
	ReplayedIters int
	// Invalidations counts shard plans discarded when failover rebuilt the
	// run state under a new placement.
	Invalidations int
	// Ships counts shared traces shipped to restarted shards on failover;
	// ShippedBytes is their total modeled wire size.
	Ships        int
	ShippedBytes int64
}

// sharedOpHeader is the modeled per-op framing cost of a shipped capture.
const sharedOpHeader = 16

// sharedFor records the engine's shared capture of plan on first use: its
// modeled wire size, 8 bytes per entry of the compiler's cost and
// pair-volume tables (cr.SpecTable) plus a fixed header per body op. The
// capture is what recovery ships to restarted shards (shipTraces) and what
// the trace counters count; resolution reads the tables themselves.
func (e *Engine) sharedFor(plan *cr.Compiled) {
	if _, ok := e.shared[plan]; ok {
		return
	}
	var n int64
	for _, spec := range plan.Spec.Ops {
		n += sharedOpHeader
		if spec.Launch != nil {
			n += int64(8 * len(spec.Launch.CostVol))
		}
		if spec.Copy != nil {
			n += int64(8 * len(spec.Copy.PairVols))
		}
	}
	if e.shared == nil {
		e.shared = make(map[*cr.Compiled]int64)
	}
	e.shared[plan] = n
	e.traceStats.Captures++
}

// shardPlan is one shard's iteration: the body ops with all non-event
// resolution done.
type shardPlan struct {
	ops []planOp
}

// planOp mirrors cr.BodyOp; exactly one field is set. A copy op the shard's
// exchange step list does not start at (a non-head op of an aggregated
// exchange phase) emits no planOp at all.
type planOp struct {
	set    *ir.SetScalar
	launch *launchPlan
	xch    *exchangePlan
}

// launchPlan is a launch op resolved for one shard: its owned colors with
// per-color argument states and kernel costs.
type launchPlan struct {
	l      *ir.Launch
	nodeID int
	colors []launchColorPlan
}

type launchColorPlan struct {
	col     geometry.Point
	colIdx  int                   // position in the global domain (collective index)
	durBase realm.Time            // kernel cost before noise
	args    []cr.Arg[realm.Event] // a reduction's: the launch's private temporary
	// Real-mode bindings: the physical arguments (iteration-invariant —
	// ir.PhysArg is immutable, so the slice is shared by every iteration's
	// task context), the footprints the kernel resolves over them, and the
	// reduce-temp re-initializers (run at task start, §4.3).
	physArgs   []ir.PhysArg
	footprints *ir.FootprintCache
	reinits    []func()
}

// exchangePlan is one shard's exchange step list (cr.ExchangeSteps) resolved:
// states bound to every step, and a transfer to every produce step. Both
// sync lowerings execute the same value.
type exchangePlan struct {
	start, end int32 // the body indices the list covers
	steps      []cr.Step[realm.Event]
	xfers      []transferPlan // by step; zero for a consume step
}

// transferPlan is a produce step's transfer. bytes is the summed member
// payload and body runs the member writes in member order — the
// unaggregated issue order — so stores are bitwise identical aggregation
// on or off.
type transferPlan struct {
	bytes            int64
	srcNode, dstNode int
	body             func() // Real-mode transfer body; iteration-invariant
}

// planFor returns the shard's memoized plan, resolving it on first use and
// counting it against the engine's shared capture (or as a per-shard
// capture under NoShare).
func (st *runState) planFor(sh *shard) *shardPlan {
	e := st.e
	// planMu serializes resolution across shard agents (they resolve
	// concurrently on the native backend) and protects the engine's
	// shared-capture cache and counters. A memoized plan is resolved once
	// per shard per placement, so the lock is off the steady-state path.
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if sp := st.plans[sh.me]; sp != nil {
		return sp
	}
	if !e.NoShare {
		e.sharedFor(st.plan)
		e.traceStats.Specializations++
	} else {
		e.traceStats.PerShardCaptures++
	}
	sp := st.resolve(sh)
	st.plans[sh.me] = sp
	return sp
}

// dropPlans discards every memoized shard plan and reports how many were
// live: the trace invalidation of a failover rebuild, after which the new
// placement re-resolves nodes and states.
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

// resolve builds one shard's plan of one iteration from the compiled body:
// kernel durations and pair bytes from the compiler's specialization tables
// (cr.SpecTable, which verify.CheckSpec proves equal to the geometry),
// shard-table entries, endpoint nodes (the step lists' shards composed with
// the runState's assignment), Real-mode temporaries and bindings, in body
// order.
func (st *runState) resolve(sh *shard) *shardPlan {
	sp := &shardPlan{ops: make([]planOp, 0, len(st.plan.Body))}
	for i, op := range st.plan.Body {
		switch {
		case op.Set != nil:
			sp.ops = append(sp.ops, planOp{set: op.Set})
		case op.Launch != nil:
			sp.ops = append(sp.ops, planOp{launch: st.resolveLaunch(sh, i)})
		default:
			if xp := st.resolveExchange(sh, i); xp != nil {
				sp.ops = append(sp.ops, planOp{xch: xp})
			}
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

// resolveLaunch resolves the launch at body index op over the shard's owned
// colors: per color the kernel cost, each argument's dependence state, and
// in Real mode the physical arguments over instance stores. Reduce
// arguments get persistent per-(launch,arg,color) temporaries that the task
// body re-initializes to the identity each iteration; the store is resolved
// here rather than at body-run time because kernel bodies run concurrently
// on the native backend and must not touch the shared temps map.
func (st *runState) resolveLaunch(sh *shard, op int) *launchPlan {
	e := st.e
	l := st.plan.Body[op].Launch
	costVol := st.plan.Spec.Ops[op].Launch.CostVol
	owned := st.plan.Owned[sh.me]
	lp := &launchPlan{l: l, nodeID: st.nodeOfShard(sh.me), colors: make([]launchColorPlan, len(owned))}
	for k, col := range owned {
		cp := &lp.colors[k]
		cp.col, cp.colIdx = col, st.plan.ColorIdx[col]
		cp.durBase = realm.Time(l.Task.Cost(costVol[cp.colIdx]) / float64(e.Over.KernelCores))
		cp.args = make([]cr.Arg[realm.Event], len(l.Args))
		if e.Mode == ir.ExecReal {
			cp.footprints = &ir.FootprintCache{}
			cp.physArgs = make([]ir.PhysArg, len(l.Args))
		}
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			reduce := param.Priv == ir.PrivReduce
			if reduce {
				cp.args[ai] = cr.Arg[realm.Event]{InstState: sh.table.getTemp(tempKey{l, ai, col}), Write: true}
			} else {
				cp.args[ai] = cr.Arg[realm.Event]{InstState: sh.table.get(instKey{a.Part.ID(), col}), Write: param.Priv != ir.PrivRead}
			}
			if e.Mode != ir.ExecReal {
				continue
			}
			sub := a.Part.Sub(col)
			if !reduce {
				cp.physArgs[ai] = ir.NewPhysArg(sub, st.inst[instKey{a.Part.ID(), col}], param)
				continue
			}
			buf := st.tempStore(tempKey{l, ai, col}, sub)
			cp.physArgs[ai] = ir.NewPhysArg(sub, buf, param)
			fields, rop := param.Fields, param.Op
			cp.reinits = append(cp.reinits, func() {
				for _, f := range fields {
					buf.Fill(f, rop.Identity())
				}
			})
		}
	}
	return lp
}

// resolveMember returns one produced pair's source instance state and its
// Real-mode transfer body.
func (st *runState) resolveMember(sh *shard, cp *cr.CopyOp, k int) (src *instState, body func()) {
	pr := cp.Pairs[k]
	realMode := st.e.Mode == ir.ExecReal
	fields, overlap := cp.Fields, pr.Overlap
	if cp.Reduce == region.ReduceNone {
		src = sh.table.get(instKey{cp.Src.ID(), pr.Src})
		if realMode {
			from := st.inst[instKey{cp.Src.ID(), pr.Src}]
			dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
			body = func() {
				for _, f := range fields {
					dst.CopyFieldFrom(from, f, overlap)
				}
			}
		}
		return src, body
	}
	tk := tempKey{cp.SrcLaunch, cp.SrcArg, pr.Src}
	src = sh.table.getTemp(tk)
	if realMode {
		buf := st.tempStore(tk, cp.Src.Sub(pr.Src))
		dst := st.inst[instKey{cp.Dst.ID(), pr.Dst}]
		rop := cp.Reduce
		body = func() {
			for _, f := range fields {
				dst.ReduceFieldFrom(buf, f, rop, overlap)
			}
		}
	}
	return src, body
}

// resolveExchange resolves the exchange step list starting at body index op
// for one shard, or returns nil when the list covers nothing. The shard
// consumes the pair groups whose destination it owns and produces the pairs
// whose source it owns, one transfer per step.
func (st *runState) resolveExchange(sh *shard, op int) *exchangePlan {
	steps, end := st.plan.ExchangeSteps(op, sh.me)
	if end == op {
		return nil
	}
	xp := &exchangePlan{start: int32(op), end: int32(end), steps: make([]cr.Step[realm.Event], len(steps)), xfers: make([]transferPlan, len(steps))}
	nmem := 0
	for i := range steps {
		nmem += len(steps[i].Members)
	}
	srcs := make([]*instState, nmem)
	srcNode := st.nodeOfShard(sh.me)
	for i := range steps {
		s, p, t := &steps[i], &xp.steps[i], &xp.xfers[i]
		p.ExchangeStep = s
		if !s.Produce {
			cp := st.plan.Body[s.Op].Copy
			p.Dst = sh.table.get(instKey{cp.Dst.ID(), cp.Pairs[s.GroupStart].Dst})
			continue
		}
		n := len(s.Members)
		p.Srcs, srcs = srcs[:n:n], srcs[n:]
		t.srcNode, t.dstNode = srcNode, st.nodeOfShard(int(s.DstShard))
		var bodies []func()
		if n > 1 && st.e.Mode == ir.ExecReal {
			bodies = make([]func(), n)
			t.body = func() {
				for _, body := range bodies {
					body()
				}
			}
		}
		for mi, mem := range s.Members {
			cp := st.plan.Body[mem.Op].Copy
			var body func()
			p.Srcs[mi], body = st.resolveMember(sh, cp, int(mem.Pair))
			if bodies != nil {
				bodies[mi] = body
			} else if n == 1 {
				t.body = body
			}
			vol := st.plan.Spec.Ops[mem.Op].Copy.PairVols[mem.Pair]
			t.bytes += vol * st.e.Over.EltBytes * int64(len(cp.Fields))
		}
	}
	return xp
}
