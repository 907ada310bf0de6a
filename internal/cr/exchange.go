package cr

import (
	"slices"

	"repro/internal/region"
)

// Exchange step lists: the one description of a shard's copy work,
// compiled once per plan (buildExchanges). The SPMD executor
// (internal/spmd) and the schedule certifier (internal/verify) read them
// through ExchangeSteps and wire them through one function,
// Wiring.Exchange (wire.go), so whatever rewrites the schedule —
// aggregation here, the certifier's prune flags there — is run and
// certified alike.

// AggPair names one copy pair: pair Pair of the copy op at body index Op.
type AggPair struct {
	Op, Pair int32
}

// StepMember is one copy pair carried by a produce step.
type StepMember struct {
	AggPair
	// Chain: the transfer waits on pair Pair-1's done event. Pair-1 folds
	// into the same destination instance and is not carried, ahead of this
	// member, by the same step — whose in-order member writes would order
	// the two folds instead.
	Chain bool
}

// ExchangeStep is one entry of a shard's exchange step list. A consume step
// (Produce false) is the destination-owner half of one destination group:
// release the write-after-read sync of pairs [GroupStart, GroupEnd) of copy
// op Op and advance the instance to their completions. A produce step is
// one transfer toward shard DstShard carrying Members in order; a step with
// one member is a plain pair copy.
type ExchangeStep struct {
	Produce              bool
	Op                   int32
	GroupStart, GroupEnd int32
	DstShard             int32
	Members              []StepMember
}

// Exchange is the compiled exchange starting at one body op: the end of the
// body span [op, End) it covers and every shard's step list over it.
// Without Options.Agg a copy op's exchange covers the op alone. With it the
// head op of an exchange phase (phaseEnd) covers the whole phase — each
// shard's consume steps of every phase op in body order, then its
// aggregation groups — and the phase's other ops, like every non-copy op,
// cover nothing (End == op, no lists).
type Exchange struct {
	End   int
	Steps [][]ExchangeStep // by shard
}

// ExchangeSteps returns shard's ordered exchange steps starting at the copy
// op at body index op, and the end of the body span [op, end) they cover.
func (c *Compiled) ExchangeSteps(op, shard int) (steps []ExchangeStep, end int) {
	x := &c.Exchanges[op]
	if x.End == op {
		return nil, op
	}
	return x.Steps[shard], x.End
}

// buildExchanges compiles every body op's exchange for the plan's own
// Options.Agg.
func (c *Compiled) buildExchanges() {
	xs := make([]Exchange, len(c.Body))
	for i := range xs {
		xs[i].End = i
	}
	i := 0
	for i < len(c.Body) {
		if c.Body[i].Copy == nil {
			i++
			continue
		}
		end := i + 1
		if c.Opts.Agg {
			end = c.phaseEnd(i)
		}
		xs[i] = c.buildExchange(i, end)
		i = end
	}
	c.Exchanges = xs
}

// phaseEnd returns the end of the exchange phase starting at the copy op at
// body index i: the maximal run of consecutive copy ops that touch
// pairwise-disjoint instance sets. Any launch or scalar statement ends the
// run — a task between two copies may consume the first copy's data, so
// merging across it could deadlock the merged message against the task.
// So does a copy op whose destination aliases an earlier destination (its
// wars wait the earlier op's dones), whose source aliases an earlier
// destination (read-after-write), or whose destination aliases an earlier
// source (write-after-read): a merged message spanning ordered ops waits
// on its own completion. Partition identity is a conservative alias test.
// The phase is the sync epoch of the aggregation grouping key: pairs of
// different phases never share a group, because a later phase's sources
// may depend on an earlier phase's arrivals.
func (c *Compiled) phaseEnd(i int) int {
	var srcs, dsts []region.PartitionID
	for ; i < len(c.Body) && c.Body[i].Copy != nil; i++ {
		s, d := c.Body[i].Copy.Src.ID(), c.Body[i].Copy.Dst.ID()
		if slices.Contains(dsts, d) || slices.Contains(dsts, s) || slices.Contains(srcs, d) {
			break
		}
		srcs, dsts = append(srcs, s), append(dsts, d)
	}
	return i
}

// buildExchange compiles every shard's step list over the copy ops at body
// indices [start, end). Pairs are sorted by destination color, so each
// maximal same-destination run is one group, consumed by the destination's
// owner; each pair is produced by its source's owner. Walking the ops in
// body order and their pairs in order is the unaggregated issue order.
// Without aggregation each pair is one transfer, listed after its group's
// consume step. With it a shard's produced pairs are binned by destination
// shard into groups, listed after all its consume steps in first-touch
// order with members in issue order, so a merged body that runs the member
// writes in order reproduces the unaggregated stores bitwise. The key
// (producing shard, destination shard) is placement-independent, so the
// lists survive failover rebinding and cross-shard trace sharing.
//
// A reduction member whose fold-chain predecessor belongs to another shard
// (chained) starts a NEW group toward its destination instead of joining
// the open one. Without the split, interleaved chains deadlock the merged
// schedule (message A carries a pair before AND a pair after one of
// message B's pairs in the same fold chain, so each waits the other's
// completion) and reorder the fold. With it, every message holds at most
// one contiguous chain run per destination group, and each message's
// external chain waits point at strictly lower source shards — pairs are
// sorted by source color within a destination group and shard blocks are
// contiguous — which keeps the message-level wait graph acyclic and the
// per-destination fold order exactly the unaggregated one.
func (c *Compiled) buildExchange(start, end int) Exchange {
	ns, agg := c.Opts.NumShards, c.Opts.Agg
	x := Exchange{End: end, Steps: make([][]ExchangeStep, ns)}
	groups := make([][]ExchangeStep, ns)
	open := map[[2]int32]int{} // (producing, destination) shard -> index in groups
	for op := start; op < end; op++ {
		cp := c.Body[op].Copy
		for k, pr := range cp.Pairs {
			d := int32(c.ShardOf[pr.Dst])
			if k == 0 || cp.Pairs[k-1].Dst != pr.Dst {
				g := k + 1
				for g < len(cp.Pairs) && cp.Pairs[g].Dst == pr.Dst {
					g++
				}
				x.Steps[d] = append(x.Steps[d], ExchangeStep{Op: int32(op), GroupStart: int32(k), GroupEnd: int32(g)})
			}
			src, m := int32(c.ShardOf[pr.Src]), StepMember{AggPair{int32(op), int32(k)}, c.chained(op, k)}
			step := ExchangeStep{Produce: true, DstShard: d, Members: []StepMember{m}}
			if !agg {
				x.Steps[src] = append(x.Steps[src], step)
				continue
			}
			key := [2]int32{src, step.DstShard}
			if gi, ok := open[key]; ok && !m.Chain {
				groups[src][gi].Members = append(groups[src][gi].Members, m)
				continue
			}
			open[key], groups[src] = len(groups[src]), append(groups[src], step)
		}
	}
	for s := range x.Steps {
		x.Steps[s] = append(x.Steps[s], groups[s]...)
	}
	return x
}

// chained reports whether pair k of the copy op at body index op waits on
// pair k-1's done event: a reduction whose predecessor folds into the same
// destination, unless aggregation carries the predecessor in the same
// message — it does when the same shard produces both.
func (c *Compiled) chained(op, k int) bool {
	cp := c.Body[op].Copy
	if cp.Reduce == region.ReduceNone || k == 0 || cp.Pairs[k-1].Dst != cp.Pairs[k].Dst {
		return false
	}
	return !c.Opts.Agg || c.ShardOf[cp.Pairs[k-1].Src] != c.ShardOf[cp.Pairs[k].Src]
}
