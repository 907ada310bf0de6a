package spmd

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// instKey identifies a partition subregion instance.
type instKey struct {
	part  region.PartitionID
	color geometry.Point
}

// tempKey identifies a reduce-temporary instance: the reducing launch, the
// argument slot, and the task color. (Keyed by launch identity, not body
// position: the placement passes reorder the body.)
type tempKey struct {
	launch *ir.Launch
	arg    int
	color  geometry.Point
}

// instState is the shard-local dependence state of one instance.
type instState = cr.InstState[realm.Event]

// shardTable is one shard's instance-state table. Only the owning shard's
// thread touches it (consumer-side copy processing happens on the shard
// owning the destination), so no synchronization is needed beyond the
// simulator's single-threaded execution.
type shardTable struct {
	inst map[instKey]*instState
	temp map[tempKey]*instState
}

func newShardTable() *shardTable {
	return &shardTable{inst: make(map[instKey]*instState), temp: make(map[tempKey]*instState)}
}

func (t *shardTable) get(k instKey) *instState {
	s, ok := t.inst[k]
	if !ok {
		s = &instState{LastWrite: realm.NoEvent}
		t.inst[k] = s
	}
	return s
}

func (t *shardTable) getTemp(k tempKey) *instState {
	s, ok := t.temp[k]
	if !ok {
		s = &instState{LastWrite: realm.NoEvent}
		t.temp[k] = s
	}
	return s
}

// runState is the state shared by the shards of one replicated loop
// execution. On the DES all access happens under the simulator's
// deterministic single-threaded schedule; on the native backend shard
// agents run concurrently, so the lazily-populated shared tables (sync
// blocks, barriers, collectives, reduce temporaries, iteration counters)
// are protected by mu. Everything else is either written only before the
// shards start (inst, tables, assign) or written by exactly one agent
// (curEnv by shard 0, per-index slice slots by their owners).
type runState struct {
	e    *Engine
	plan *cr.Compiled

	// mu guards the lazily-created shared state below: syncBase's stores,
	// colls, bars, temps, and the iteration counters. Uncontended on the DES.
	mu sync.Mutex

	inst   map[instKey]*region.Store // Real mode instances
	temps  map[tempKey]*region.Store // Real mode reduce temporaries
	tables []*shardTable

	// Dense per-iteration synchronization tables. The compiled plan fixes
	// every copy pair and scalar reduction of an iteration, so instead of a
	// lazily populated map keyed by (copy, pair, iteration), each iteration's
	// sync events are one contiguous block reserved in bulk from the
	// simulator (realm.ReserveEvents): slot arithmetic replaces hashing and
	// per-pair allocations. pairOff maps a copy's body index to its first pair
	// slot (one per CopyOp.ID); iteration t's pair k of the copy at body
	// index op lives at syncBase[t] + 2*(pairOff[op]+k) (war, then done).
	// Collectives and ablation barriers are likewise indexed by (iteration,
	// position).
	pairOff   []int
	pairTotal int
	syncBase  []atomic.Int32 // a realm.Event per iteration; NoEvent until first touch

	redIdx map[*ir.Launch]int
	numRed int
	colls  []realm.CollectiveOp // [iter*numRed + redIdx], lazily created

	barIdx    []int // by body index, like pairOff
	numBarOps int
	bars      []realm.BarrierOp // [(iter*numBarOps + barIdx)*2 + which], lazy

	// plans are the per-shard memoized iteration plans (see plan.go); nil
	// until a shard first runs, and always nil when plans are not memoized.
	// Rebuilt runStates (shard failover, PR 2 recovery) start empty, which
	// is the trace invalidation: the new placement re-resolves from scratch.
	plans []*shardPlan

	iterCount []int
	iterTimes []realm.Time
	shardDone []realm.Event // created per epoch by runEpoch

	// assign maps shard index to node; watch is the sorted set of assigned
	// nodes, the ones whose failure aborts a phase — empty when recovery is
	// off, so every phase wait is a plain one (waitOrFail).
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

func newRunState(e *Engine, plan *cr.Compiled, trip int, assign []int) *runState {
	ns := plan.Opts.NumShards
	st := &runState{
		e:         e,
		plan:      plan,
		inst:      make(map[instKey]*region.Store),
		temps:     make(map[tempKey]*region.Store),
		tables:    make([]*shardTable, ns),
		iterCount: make([]int, trip),
		iterTimes: make([]realm.Time, trip),
		assign:    assign,
		curEnv:    copyEnv(e.env),
		plans:     make([]*shardPlan, ns),
	}
	for s := range st.tables {
		st.tables[s] = newShardTable()
	}
	st.indexSyncSlots(trip)
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

// indexSyncSlots assigns every copy op's pairs, every scalar reduction, and
// every ablation barrier a dense position, sizing the per-iteration tables.
func (st *runState) indexSyncSlots(trip int) {
	n := len(st.plan.Body)
	st.pairOff, st.barIdx = make([]int, n), make([]int, n)
	st.redIdx = make(map[*ir.Launch]int)
	first := make(map[int]int) // CopyOp.ID -> body index of its first op
	for i, op := range st.plan.Body {
		switch {
		case op.Copy != nil:
			if f, ok := first[op.Copy.ID]; ok {
				st.pairOff[i], st.barIdx[i] = st.pairOff[f], st.barIdx[f]
				continue
			}
			first[op.Copy.ID] = i
			st.pairOff[i] = st.pairTotal
			st.pairTotal += len(op.Copy.Pairs)
			st.barIdx[i] = st.numBarOps
			st.numBarOps++
		case op.Launch != nil && op.Launch.Reduce != nil:
			if _, ok := st.redIdx[op.Launch]; !ok {
				st.redIdx[op.Launch] = st.numRed
				st.numRed++
			}
		}
	}
	st.syncBase = make([]atomic.Int32, trip) // all NoEvent
	st.colls = make([]realm.CollectiveOp, trip*st.numRed)
	if st.plan.Opts.Sync == cr.BarrierSync {
		st.bars = make([]realm.BarrierOp, trip*st.numBarOps*2)
	}
}

// warFor returns the war event of pair k of the copy at body index op in
// iteration iter; the pair's done event is the next one. They are the
// point-to-point synchronization pair of §3.4: war is the consumer's
// release (write-after-read: prior consumers of the destination have
// finished), done the producer's completion (read-after-write: the copy
// has landed), plain events attached as task pre/post conditions, so
// neither side's control thread ever blocks on them. Producer and consumer
// may ask in either order. The first touch of an iteration reserves its
// whole sync block in bulk, under mu; every later one is an atomic load.
func (st *runState) warFor(op, k int32, iter int) realm.Event {
	base := realm.Event(st.syncBase[iter].Load())
	if base == realm.NoEvent {
		base = st.reserveSync(iter)
	}
	return base + realm.Event(2*(st.pairOff[op]+int(k)))
}

// reserveSync returns iteration iter's sync block, reserving it unless
// another shard got there first.
func (st *runState) reserveSync(iter int) realm.Event {
	st.mu.Lock()
	defer st.mu.Unlock()
	base := realm.Event(st.syncBase[iter].Load())
	if base == realm.NoEvent {
		base = st.e.Sim.ReserveEvents(2 * st.pairTotal)
		st.syncBase[iter].Store(int32(base))
	}
	return base
}

// barrierFor lazily creates one of the two global barriers of the copy at
// body index op.
func (st *runState) barrierFor(op int32, iter, which int) realm.BarrierOp {
	i := (iter*st.numBarOps+st.barIdx[op])*2 + which
	st.mu.Lock()
	b := st.bars[i]
	if b == nil {
		b = st.e.Sim.Barrier(st.plan.Opts.NumShards)
		st.bars[i] = b
	}
	st.mu.Unlock()
	return b
}

// collFor lazily creates the dynamic collective for a scalar reduction.
func (st *runState) collFor(l *ir.Launch, iter int, op region.ReductionOp) realm.CollectiveOp {
	i := iter*st.numRed + st.redIdx[l]
	st.mu.Lock()
	c := st.colls[i]
	if c == nil {
		c = st.e.Sim.Collective(len(st.plan.Domain), op.Identity(), op.Fold)
		st.colls[i] = c
	}
	st.mu.Unlock()
	return c
}

// markRestored records that instance (UsedParts[pi], color index ci) was
// populated. Only the control thread calls it.
func (st *runState) markRestored(pi, ci int) {
	if st.restored == nil {
		st.restored = make([][]bool, len(st.plan.UsedParts))
		for i := range st.restored {
			st.restored[i] = make([]bool, len(st.plan.Domain))
		}
	}
	st.restored[pi][ci] = true
}

// recordIter counts shard completions of iteration t and stamps the time
// when the last one lands. The callback may run on any goroutine on the
// native backend, so the counters live under mu.
func (st *runState) recordIter(t int, ev realm.Event) {
	sim := st.e.Sim
	sim.OnTrigger(ev, func() {
		st.mu.Lock()
		st.iterCount[t]++
		if st.iterCount[t] == st.plan.Opts.NumShards {
			st.iterTimes[t] = sim.Now()
		}
		st.mu.Unlock()
	})
}

// nodeOfShard maps shard s to its node. The assignment is blockwise over
// the live nodes (one shard per node in the typical configuration, §4.2)
// and is recomputed by the recovery layer when shards relaunch after a
// crash.
func (st *runState) nodeOfShard(s int) int {
	return st.assign[s]
}

// ownerNode returns the node owning a domain color's instances.
func (st *runState) ownerNode(c geometry.Point) int {
	return st.nodeOfShard(st.plan.ShardOf[c])
}
