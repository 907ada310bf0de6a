package spmd

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// instState is the dependence state of one instance: its last write and
// the reads since.
type instState = cr.InstState[realm.Event]

// runState is the state shared by the shards of one replicated loop
// execution. On the DES all access happens under the simulator's
// deterministic single-threaded schedule; on the native backend shard
// agents run concurrently, so the lazily-populated shared state (iteration
// records, the loop's iteration stamps) is protected by mu. Everything else
// is either written only before the shards start (ix, assign, the stores'
// slots) or written by exactly one agent: curEnv by shard 0, an instance's
// state by the shard owning its colour (see bind).
type runState struct {
	e    *Engine
	plan *cr.Compiled
	ix   *cr.Index

	// mu guards the lazily-created shared state below: iters, free and
	// times. Uncontended on the DES.
	mu sync.Mutex

	// states is every instance's dependence state, zero (no write yet) until
	// its shard issues on it, and, in Real mode, stores its physical
	// instance, both by instance key (cr.Index). The reduce temporaries'
	// stores are made with the table, the partitions' by the init or
	// restore phase.
	states []instState
	stores []*region.Store

	// Dense per-iteration synchronization positions. The compiled plan fixes
	// every copy pair and scalar reduction of an iteration, so each
	// iteration's sync events are one contiguous block reserved in bulk
	// (realm.ReserveEvents): slot arithmetic replaces hashing and per-pair
	// allocations. The block holds only the events the wiring triggers under
	// the plan's lowering and prune (cr.Fires), so every slot fires and an
	// iteration's event pages can be dropped. The war (which 0) or done (1)
	// of pair k of the copy at body index op is the iteration's sync base +
	// syncSlot[pairOff[op]+2k+which] (pairOff is shared by the ops of one
	// CopyOp.ID), a slot that is -1 for an event that never fires.
	// Collectives sit at redIdx and ablation barriers at barIdx*2+which of
	// the iteration's record.
	pairOff   []int
	syncSlot  []int32
	syncSize  int
	redIdx    map[*ir.Launch]int
	barIdx    []int // by body index, like pairOff
	numBarOps int

	// iters holds one record per iteration in flight, created by the first
	// shard to reach it and recycled through free when the last retires it.
	iters map[int]*iteration
	free  []*iteration

	// plans are the per-shard memoized iteration plans (see plan.go); nil
	// until a shard first runs, and always nil when plans are not memoized.
	// Rebuilt runStates (shard failover) start empty, which is the trace
	// invalidation: the new placement re-resolves from scratch.
	plans []*shardPlan

	// times is the loop's iteration stamps, shared by every run state of
	// the loop; nil once the run state is closed.
	times     []realm.Time
	shardDone []realm.Event // created per epoch by runEpoch

	// assign maps shard index to node, blockwise over the live nodes
	// (liveAssign); watch is the sorted set of assigned nodes, the ones
	// whose failure aborts a phase — empty when recovery is off, so every
	// phase wait is a plain one (waitOrFail).
	assign []int
	watch  []int

	// restored[i][colorIdx] marks the instances of UsedParts[i] the init
	// or restore phase populated: what a failover record reports as
	// repopulated.
	restored [][]bool

	// curEnv is the replicated scalar environment at the run state's
	// current epoch boundary: the loop entry bindings before the first
	// epoch, shard 0's snapshot after each one. Scalars are replicated, so
	// any shard's bindings are the program's.
	curEnv ir.MapEnv
}

// iteration is the shared state of one iteration in flight: its sync block,
// its collectives (by redIdx) and barriers (by barIdx*2+which), both
// created on first use, and the number of shards that have not retired it.
type iteration struct {
	t     int
	sync  realm.Event
	colls []realm.CollectiveOp
	bars  []realm.BarrierOp
	left  int
}

func newRunState(e *Engine, plan *cr.Compiled, ix *cr.Index, assign []int, times []realm.Time) *runState {
	ns := plan.Opts.NumShards
	st := &runState{
		e:      e,
		plan:   plan,
		ix:     ix,
		states: make([]instState, ix.Keys()),
		iters:  make(map[int]*iteration),
		times:  times,
		assign: assign,
		curEnv: copyEnv(e.env),
		plans:  make([]*shardPlan, ns),
	}
	if e.Mode == ir.ExecReal {
		st.stores = make([]*region.Store, ix.Keys())
		for slot := len(plan.UsedParts); slot < len(ix.Slots); slot++ {
			t := ix.Slots[slot]
			fields := t.Launch.Task.Params[t.Arg].Fields
			for ci, col := range plan.Domain {
				sub := t.Part.Sub(col)
				st.stores[ix.Key(int32(slot), ci)] = region.NewLayout(sub.IndexSpace()).NewStoreOf(e.Prog.FieldSpaceOf(sub), fields)
			}
		}
	}
	st.indexSyncSlots()
	if e.Recov.MaxRetries > 0 {
		seen := make(map[int]bool, len(assign))
		for _, n := range assign {
			if !seen[n] {
				seen[n] = true
				st.watch = append(st.watch, n)
			}
		}
		sort.Ints(st.watch)
	}
	return st
}

// indexSyncSlots assigns every copy op's pairs, every sync event that
// fires, every scalar reduction, and every ablation barrier a dense
// position within an iteration.
func (st *runState) indexSyncSlots() {
	plan := st.plan
	n := len(plan.Body)
	st.pairOff, st.barIdx = make([]int, n), make([]int, n)
	st.redIdx = make(map[*ir.Launch]int)
	first := make(map[int]int) // CopyOp.ID -> body index of its first op
	for i, op := range plan.Body {
		switch {
		case op.Copy != nil:
			if f, ok := first[op.Copy.ID]; ok {
				st.pairOff[i], st.barIdx[i] = st.pairOff[f], st.barIdx[f]
				continue
			}
			first[op.Copy.ID] = i
			st.pairOff[i] = len(st.syncSlot)
			for k := range op.Copy.Pairs {
				war, done := cr.Fires(plan, plan.Prune, op.Copy, k)
				for _, fires := range [2]bool{war, done} {
					slot := int32(-1)
					if fires {
						slot = int32(st.syncSize)
						st.syncSize++
					}
					st.syncSlot = append(st.syncSlot, slot)
				}
			}
			st.barIdx[i] = st.numBarOps
			st.numBarOps++
		case op.Launch != nil && op.Launch.Reduce != nil:
			if _, ok := st.redIdx[op.Launch]; !ok {
				st.redIdx[op.Launch] = len(st.redIdx)
			}
		}
	}
}

// iterFor returns iteration t's record, creating it if the shard is the
// first to reach t. Creation reserves the iteration's whole sync block in
// bulk: every slot fires (cr.Fires), so reserving before the wiring asks
// for a slot pins no event page.
func (st *runState) iterFor(t int) *iteration {
	st.mu.Lock()
	defer st.mu.Unlock()
	it := st.iters[t]
	if it == nil {
		if k := len(st.free); k > 0 {
			it, st.free = st.free[k-1], st.free[:k-1]
		} else {
			it = &iteration{colls: make([]realm.CollectiveOp, len(st.redIdx))}
			if st.plan.Opts.Sync == cr.BarrierSync {
				it.bars = make([]realm.BarrierOp, 2*st.numBarOps)
			}
		}
		it.t, it.left = t, st.plan.Opts.NumShards
		it.sync = st.e.Sim.ReserveEvents(st.syncSize)
		st.iters[t] = it
	}
	return it
}

// retire counts the shard's completion of iteration it once ev fires. The
// last shard to complete stamps the iteration's time and recycles the
// record. The callback may run on any goroutine on the native backend,
// hence mu.
func (st *runState) retire(it *iteration, ev realm.Event) {
	sim := st.e.Sim
	sim.OnTrigger(ev, func() {
		st.mu.Lock()
		if it.left--; it.left == 0 {
			if st.times != nil {
				st.times[it.t] = sim.Now()
			}
			delete(st.iters, it.t)
			clear(it.colls)
			clear(it.bars)
			st.free = append(st.free, it)
		}
		st.mu.Unlock()
	})
}

// close stops the run state's stamping once its loop has finalized or its
// epoch was abandoned: a later retire (an abandoned epoch's, or a native
// continuation still running after its shard moved on) stamps nothing.
func (st *runState) close() {
	st.mu.Lock()
	st.times = nil
	st.mu.Unlock()
}

// syncEvent returns the war (which 0) or done (1) event of pair k of the
// copy at body index op in iteration it. They are the point-to-point
// synchronization pair of §3.4: war is the consumer's release
// (write-after-read: prior consumers of the destination have finished),
// done the producer's completion (read-after-write: the copy has landed),
// plain events attached as task pre/post conditions, so neither side's
// control thread ever blocks on them. Producer and consumer may ask in
// either order. Asking for an event that never fires would wait forever,
// so it panics.
func (st *runState) syncEvent(it *iteration, op, k int32, which int) realm.Event {
	slot := st.syncSlot[st.pairOff[op]+2*int(k)+which]
	if slot < 0 {
		panic(fmt.Sprintf("spmd: pair %d of the copy at body index %d has no %s event: it never fires", k, op, [2]string{"war", "done"}[which]))
	}
	return it.sync + realm.Event(slot)
}

// barrierFor lazily creates one of the two global barriers of the copy at
// body index op in iteration it.
func (st *runState) barrierFor(it *iteration, op int32, which int) realm.BarrierOp {
	i := st.barIdx[op]*2 + which
	st.mu.Lock()
	b := it.bars[i]
	if b == nil {
		b = st.e.Sim.Barrier(st.plan.Opts.NumShards)
		it.bars[i] = b
	}
	st.mu.Unlock()
	return b
}

// collFor lazily creates iteration it's dynamic collective for a scalar
// reduction.
func (st *runState) collFor(it *iteration, l *ir.Launch, op region.ReductionOp) realm.CollectiveOp {
	i := st.redIdx[l]
	st.mu.Lock()
	c := it.colls[i]
	if c == nil {
		c = st.e.Sim.Collective(len(st.plan.Domain), op.Identity(), op.Fold)
		it.colls[i] = c
	}
	st.mu.Unlock()
	return c
}

// markRestored records that the partition instance with the given key was
// populated. Only the control thread calls it.
func (st *runState) markRestored(key int32) {
	pi, ci := st.ix.Split(key)
	if st.restored == nil {
		st.restored = make([][]bool, len(st.plan.UsedParts))
		for i := range st.restored {
			st.restored[i] = make([]bool, len(st.plan.Domain))
		}
	}
	st.restored[pi][ci] = true
}

// ownerNode returns the node owning the instance with the given key.
func (st *runState) ownerNode(key int32) int {
	return st.assign[st.ix.Shard(key)]
}
