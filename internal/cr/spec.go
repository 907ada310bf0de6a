package cr

// Specialization tables: the compile-time half of cross-shard trace
// sharing. Every shard of a compiled loop executes the same body over a
// different color block, so everything the SPMD executor's per-shard plan
// capture used to resolve at run time that does NOT depend on the shard or
// on the node assignment — copy pair grouping and per-shard work lists,
// pair volumes, pair endpoint shards, kernel cost volumes — is a pure
// function of the compiled plan. The compiler emits it
// once, here, and the executor instantiates each shard's concrete plan by
// table substitution (internal/spmd/plan.go) instead of re-deriving it
// per shard per run state.
//
// The tables are what the executor's one resolver walks whether or not it
// has a shared capture, and whether the plan is memoized or re-resolved
// every iteration (the work lists replace the per-runState copy schedules
// the executor used to build), so every way a shard runs reads the same
// precomputed partition of the copy work — one source of truth,
// statically checked by internal/verify.CheckSpec against a direct
// recomputation from the pair lists. The tables are indexed by dense color
// slot (ColorIdx), not by a shard's position in its block, so one table
// serves every shard of a compiled loop, ragged blocks included.

import (
	"repro/internal/ir"
	"repro/internal/region"
)

// SpecWork is the slice of one copy op one shard executes within one
// destination group: the group's absolute pair range, whether this shard
// owns the destination (consumer), and the pairs it produces.
type SpecWork struct {
	// GroupStart/GroupEnd delimit a maximal run of pairs sharing one
	// destination color within CopyOp.Pairs.
	GroupStart, GroupEnd int
	// ProdPairs are the absolute pair indices this shard owns as producer,
	// ascending.
	ProdPairs []int
	// Consumer marks the shard owning the group's destination color.
	Consumer bool
}

// AggPair names one member of an aggregation group: pair Pair of the copy
// op at body index Op.
type AggPair struct {
	// Op is the member's copy op's index in Compiled.Body.
	Op int32
	// Pair is the member's absolute index in that op's CopyOp.Pairs.
	Pair int32
}

// AggGroup is one coalesced transfer of an exchange phase: every pair one
// shard produces toward one destination shard across the phase's copy
// ops, in phase-op-then-ascending-pair order — the exact order the
// unaggregated executor issues them, so a merged body that runs the
// member writes in slice order reproduces the unaggregated stores
// bitwise. The grouping key (producing shard, destination shard) is
// placement-independent: shards, not nodes, so the tables survive
// failover rebinding and cross-shard trace sharing unchanged.
type AggGroup struct {
	// DstShard is the shard owning every member pair's destination color.
	DstShard int32
	// Members lists the group's pairs in issue order.
	Members []AggPair
}

// AggPhase is one exchange phase: a maximal run of consecutive copy ops
// in Compiled.Body that touch pairwise-disjoint instance sets. Any launch
// or scalar statement breaks the run — a task between two copies may
// consume the first copy's data, so merging across it could deadlock the
// merged message against the task. So does a copy op whose source or
// destination partition aliases an earlier phase op's destination (or
// whose destination aliases an earlier source): the later op's
// synchronization then waits on the earlier op's completions, and folding
// both into one message would make the message wait on itself. The phase
// is the sync epoch of the aggregation grouping key: pairs of different
// phases never share a group, because a later phase's sources may depend
// on an earlier phase's arrivals.
type AggPhase struct {
	// Start and End delimit the phase's body indices: Body[Start:End] are
	// all copy ops.
	Start, End int
	// ByShard[s] lists shard s's coalesced transfers: its produced pairs
	// across the phase's ops binned by destination shard, groups in
	// first-touch order, members in issue order. Built unconditionally (a
	// pure function of the pair lists), consulted only when Options.Agg.
	ByShard [][]AggGroup
}

// CopySpec is the shard-indexed schedule of one copy op.
type CopySpec struct {
	// PerShard[s] lists shard s's work, in group order.
	PerShard [][]SpecWork
	// PairVols[k] is Pairs[k].Overlap.Volume(); the executor scales it by
	// element size and field count.
	PairVols []int64
	// SrcShard/DstShard[k] are the shards owning Pairs[k]'s source and
	// destination colors.
	SrcShard, DstShard []int32
}

// LaunchSpec is the shard-independent cost table of one launch op.
type LaunchSpec struct {
	// CostVol[i] is the cost-argument subregion volume of Domain[i] (dense
	// by ColorIdx); the executor turns it into a kernel duration.
	CostVol []int64
}

// OpSpec pairs a body op with its specialization table; exactly one field
// is set, mirroring BodyOp.
type OpSpec struct {
	Launch *LaunchSpec
	Copy   *CopySpec
}

// SpecTable is the full specialization metadata of one compiled loop.
type SpecTable struct {
	// Ops is parallel to Compiled.Body; body ops of one CopyOp share one
	// CopySpec.
	Ops []OpSpec
	// Phases are the body's exchange phases with their aggregation tables.
	Phases []AggPhase
	// PhaseOf is parallel to Compiled.Body: the index into Phases of the
	// phase containing the op, -1 for non-copy ops. A copy op at index i
	// heads its phase iff Phases[PhaseOf[i]].Start == i; the aggregated
	// executor runs the whole phase at its head and skips the rest.
	PhaseOf []int
}

// buildSpec emits the specialization tables. Called by Compile after
// createShards (ownership fixed) and computeIntersections (pairs fixed).
func (c *Compiled) buildSpec() {
	spec := SpecTable{Ops: make([]OpSpec, len(c.Body))}
	copyByID := make(map[int]*CopySpec)
	for i, op := range c.Body {
		switch {
		case op.Launch != nil:
			spec.Ops[i].Launch = c.buildLaunchSpec(op.Launch)
		case op.Copy != nil:
			cs, ok := copyByID[op.Copy.ID]
			if !ok {
				cs = c.buildCopySpec(op.Copy)
				copyByID[op.Copy.ID] = cs
			}
			spec.Ops[i].Copy = cs
		}
	}
	c.Spec = spec
	c.buildAggPhases()
}

// AggChainExternal reports whether pair k's fold-chain predecessor is
// produced by another shard — the only chain links an aggregated producer
// still waits on (through the shared per-pair done events). A same-shard
// predecessor is a member of the same aggregation group, ordered by the
// merged body's in-order member writes instead.
func AggChainExternal(cp *CopyOp, cs *CopySpec, k int) bool {
	return k > 0 && cp.Pairs[k-1].Dst == cp.Pairs[k].Dst && cs.SrcShard[k-1] != cs.SrcShard[k]
}

// buildAggPhases scans the body for exchange phases (maximal runs of
// consecutive copy ops) and bins each shard's produced pairs by
// destination shard within each phase. Walking the phase's ops in body
// order and each op's work lists in group order keeps the groups in
// first-touch order and the members in exactly the order the unaggregated
// executor issues them, so a merged body's write order reproduces the
// unaggregated stores bitwise.
//
// A reduction member whose fold-chain predecessor belongs to another shard
// starts a NEW group toward its destination instead of joining the open
// one. Without the split, interleaved chains deadlock the merged schedule
// (message A carries a pair before AND a pair after one of message B's
// pairs in the same fold chain, so each waits the other's completion) and
// reorder the fold (the merged body would apply the later pair before the
// other shard's intervening one). With it, every message holds at most one
// contiguous chain run per destination group, and each message's external
// chain waits point at strictly lower source shards — pairs are sorted by
// source color within a destination group and shard blocks are contiguous,
// so cross-shard chain edges always go low shard to high shard — which
// keeps the message-level wait graph acyclic and the per-destination fold
// order exactly the unaggregated one.
func (c *Compiled) buildAggPhases() {
	ns := c.Opts.NumShards
	spec := &c.Spec
	spec.PhaseOf = make([]int, len(c.Body))
	for i := range spec.PhaseOf {
		spec.PhaseOf[i] = -1
	}
	i := 0
	for i < len(c.Body) {
		if c.Body[i].Copy == nil {
			i++
			continue
		}
		// Extend the phase while the next copy op's partitions stay disjoint
		// from the run's: a destination aliasing an earlier destination (the
		// later op's wars wait the earlier op's dones), a source aliasing an
		// earlier destination (read-after-write), or a destination aliasing
		// an earlier source (write-after-read) all order the ops, and a
		// merged message spanning ordered ops waits on its own completion.
		// Partition identity is a conservative alias test.
		j := i
		var srcs, dsts []region.PartitionID
		for j < len(c.Body) && c.Body[j].Copy != nil {
			cp := c.Body[j].Copy
			s, d := cp.Src.ID(), cp.Dst.ID()
			conflict := false
			for _, pd := range dsts {
				if d == pd || s == pd {
					conflict = true
				}
			}
			for _, ps := range srcs {
				if d == ps {
					conflict = true
				}
			}
			if conflict {
				break
			}
			srcs = append(srcs, s)
			dsts = append(dsts, d)
			j++
		}
		ph := AggPhase{Start: i, End: j, ByShard: make([][]AggGroup, ns)}
		for s := 0; s < ns; s++ {
			touched := map[int32]int{}
			for op := i; op < j; op++ {
				cp := c.Body[op].Copy
				cs := spec.Ops[op].Copy
				reduce := cp.Reduce != region.ReduceNone
				for _, w := range cs.PerShard[s] {
					for _, k := range w.ProdPairs {
						dst := cs.DstShard[k]
						gi, ok := touched[dst]
						if !ok || (reduce && AggChainExternal(cp, cs, k)) {
							ph.ByShard[s] = append(ph.ByShard[s], AggGroup{DstShard: dst})
							gi = len(ph.ByShard[s]) - 1
							touched[dst] = gi
						}
						g := &ph.ByShard[s][gi]
						g.Members = append(g.Members, AggPair{Op: int32(op), Pair: int32(k)})
					}
				}
			}
		}
		for op := i; op < j; op++ {
			spec.PhaseOf[op] = len(spec.Phases)
		}
		spec.Phases = append(spec.Phases, ph)
		i = j
	}
}

func (c *Compiled) buildLaunchSpec(l *ir.Launch) *LaunchSpec {
	ls := &LaunchSpec{CostVol: make([]int64, len(c.Domain))}
	arg := l.Args[l.Task.CostArg]
	for i, col := range c.Domain {
		ls.CostVol[i] = arg.At(col).Volume()
	}
	return ls
}

// buildCopySpec partitions the copy's pair list by shard: pairs are sorted
// by destination color, so each maximal same-destination run is one group;
// the destination's shard consumes the group and each source's shard
// produces its pairs. This is the schedule the executor previously rebuilt
// per run state; hoisted here it is computed once per compilation.
func (c *Compiled) buildCopySpec(cp *CopyOp) *CopySpec {
	ns := c.Opts.NumShards
	pairs := cp.Pairs
	cs := &CopySpec{
		PerShard: make([][]SpecWork, ns),
		PairVols: make([]int64, len(pairs)),
		SrcShard: make([]int32, len(pairs)),
		DstShard: make([]int32, len(pairs)),
	}
	for k, pr := range pairs {
		cs.PairVols[k] = pr.Overlap.Volume()
		cs.SrcShard[k] = int32(c.ShardOf[pr.Src])
		cs.DstShard[k] = int32(c.ShardOf[pr.Dst])
	}
	i := 0
	for i < len(pairs) {
		j := i
		for j < len(pairs) && pairs[j].Dst == pairs[i].Dst {
			j++
		}
		dstShard := int(cs.DstShard[i])
		// touched maps shard -> index into PerShard[shard] for this group,
		// so a shard producing several of the group's pairs appends to one
		// work entry. Keyed lookups only; iteration order never observed.
		touched := map[int]int{}
		get := func(s int) *SpecWork {
			w, ok := touched[s]
			if !ok {
				cs.PerShard[s] = append(cs.PerShard[s], SpecWork{GroupStart: i, GroupEnd: j})
				w = len(cs.PerShard[s]) - 1
				touched[s] = w
			}
			return &cs.PerShard[s][w]
		}
		get(dstShard).Consumer = true
		for k := i; k < j; k++ {
			w := get(int(cs.SrcShard[k]))
			w.ProdPairs = append(w.ProdPairs, k)
		}
		i = j
	}
	return cs
}
