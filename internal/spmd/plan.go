package spmd

// Shard plans: resolve → shardPlan → execute is the only way a shard runs
// an iteration. A compiled loop's body is structurally identical in every
// iteration — the body op list, copy pair lists and shard ownership are
// fixed at compile time — so everything a shard needs per iteration that is
// NOT event-valued (instance states by cr.Index key, copy pair grouping,
// owner nodes, transfer sizes, kernel cost, Real-mode store bindings) is
// resolved into a shardPlan by one function, resolve, and the one executor
// in shard.go rebuilds the event graph from the plan's flat slices and
// instState pointers. Scalar statements stay live in the executor (their
// values may be data-dependent; only structural resolution is planned).
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
// look-ups, the compiled plan itself: kernel cost per color is the cost
// argument's subregion volume, transfer size per pair the volume of the
// overlap the intersection pass computed, and the exchange step lists are
// the compiled ones (cr.Compiled.Exchanges, which verify.CheckSpec and
// CheckAggTables check against a recomputation), bound to instances by the
// numbering the certifier replays (cr.NewIndex). What sharing adds is only
// accounting: the engine records the loop's shared capture once per run —
// its modeled wire size — and counts each shard plan as a specialization
// of it; with NoShare each shard plan counts as a per-shard capture.
// Either way resolve runs the same code, so the plans and every schedule
// are identical.
//
// Invalidation is by construction rather than by fingerprint: plans are
// keyed by (runState, shard), and everything they resolve — the compiled
// plan, node assignment, instance stores — is immutable for the runState's
// lifetime. The one thing that changes resolution is shard failover, and that
// rebuilds the runState, discarding every plan with it. The shared capture
// survives the rebuild (it depends on nothing the failure changed), and the
// recovery layer ships it to the restarted shards' nodes as a real message
// (one Exec.CopyBytes per node) before they re-resolve.

import (
	"fmt"

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
// modeled wire size, a fixed header per body op plus 8 bytes per domain
// color of each launch (its kernel cost) and per pair of each copy (its
// transfer size). The capture is what recovery ships to restarted shards
// (shipTraces) and what the trace counters count.
func (e *Engine) sharedFor(plan *cr.Compiled) {
	if _, ok := e.shared[plan]; ok {
		return
	}
	var n int64
	for _, op := range plan.Body {
		n += sharedOpHeader
		switch {
		case op.Launch != nil:
			n += int64(8 * len(plan.Domain))
		case op.Copy != nil:
			n += int64(8 * len(op.Copy.Pairs))
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
// kernel durations from the cost argument's subregion volumes, pair bytes
// from the overlap volumes, instance states and Real-mode stores by the
// keys of the plan's cr.Index, endpoint nodes (the compiled step lists'
// shards composed with the runState's assignment), in body order.
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

// bind returns the state of the instance with the given key. Only the shard
// owning an instance's colour touches its state — a task's shard its
// arguments, a consumer its destinations, a producer its sources — which
// is what lets the shards share one table; binding another shard's
// instance would race, so it panics.
func (sh *shard) bind(key int32) *instState {
	if owner := sh.st.ix.Shard(key); int(owner) != sh.me {
		panic(fmt.Sprintf("spmd: shard %d binds instance %d, which shard %d owns", sh.me, key, owner))
	}
	return &sh.st.states[key]
}

// resolveLaunch resolves the launch at body index op over the shard's owned
// colors: per color the kernel cost, each argument's dependence state, and
// in Real mode the physical arguments over instance stores. A reduce
// argument binds its persistent per-(launch, argument, color) temporary,
// which the task body re-initializes to the identity each iteration.
func (st *runState) resolveLaunch(sh *shard, op int) *launchPlan {
	e := st.e
	l := st.plan.Body[op].Launch
	costArg := l.Args[l.Task.CostArg]
	slots := st.ix.Args[op]
	owned := st.plan.Owned[sh.me]
	lp := &launchPlan{l: l, nodeID: st.assign[sh.me], colors: make([]launchColorPlan, len(owned))}
	for k, col := range owned {
		cp := &lp.colors[k]
		cp.col, cp.colIdx = col, st.plan.ColorIdx[col]
		cp.durBase = realm.Time(l.Task.Cost(costArg.At(col).Volume()) / float64(e.Over.KernelCores))
		cp.args = make([]cr.Arg[realm.Event], len(l.Args))
		if e.Mode == ir.ExecReal {
			cp.footprints = &ir.FootprintCache{}
			cp.physArgs = make([]ir.PhysArg, len(l.Args))
		}
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			key := st.ix.Key(slots[ai], cp.colIdx)
			cp.args[ai] = cr.Arg[realm.Event]{InstState: sh.bind(key), Write: param.Priv != ir.PrivRead}
			if e.Mode != ir.ExecReal {
				continue
			}
			buf := st.stores[key]
			cp.physArgs[ai] = ir.NewPhysArg(a.Part.Sub(col), buf, param)
			if param.Priv == ir.PrivReduce {
				fields, rop := param.Fields, param.Op
				cp.reinits = append(cp.reinits, func() {
					for _, f := range fields {
						buf.Fill(f, rop.Identity())
					}
				})
			}
		}
	}
	return lp
}

// resolveMember returns one produced pair's source instance state and its
// Real-mode transfer body: an overwrite for a plain copy, a fold of the
// reducing launch's temporary for a reduction copy.
func (st *runState) resolveMember(sh *shard, m cr.AggPair) (src *instState, body func()) {
	keys := st.ix.Body[m.Op][m.Pair]
	src = sh.bind(keys[0])
	if st.e.Mode != ir.ExecReal {
		return src, nil
	}
	cp := st.plan.Body[m.Op].Copy
	from, dst := st.stores[keys[0]], st.stores[keys[1]]
	fields, overlap, rop := cp.Fields, cp.Pairs[m.Pair].Overlap, cp.Reduce
	if rop == region.ReduceNone {
		return src, func() { copyFields(dst, from, fields, overlap) }
	}
	return src, func() {
		for _, f := range fields {
			dst.ReduceFieldFrom(from, f, rop, overlap)
		}
	}
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
	srcNode := st.assign[sh.me]
	for i := range steps {
		s, p, t := &steps[i], &xp.steps[i], &xp.xfers[i]
		p.ExchangeStep = s
		if !s.Produce {
			p.Dst = sh.bind(st.ix.Body[s.Op][s.GroupStart][1])
			continue
		}
		n := len(s.Members)
		p.Srcs, srcs = srcs[:n:n], srcs[n:]
		t.srcNode, t.dstNode = srcNode, st.assign[s.DstShard]
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
			p.Srcs[mi], body = st.resolveMember(sh, mem.AggPair)
			if bodies != nil {
				bodies[mi] = body
			} else if n == 1 {
				t.body = body
			}
			t.bytes += cp.Pairs[mem.Pair].Overlap.Volume() * region.EltBytes * int64(len(cp.Fields))
		}
	}
	return xp
}
