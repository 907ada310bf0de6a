package cr

import "repro/internal/region"

// Exchange step lists: the one description of a shard's copy work. The
// SPMD executor (internal/spmd) and the schedule certifier
// (internal/verify) wire the list ExchangeSteps returns through one
// function, Wiring.Exchange (wire.go), so whatever rewrites the schedule —
// aggregation here, the certifier's prune flags there — is run and
// certified alike.

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

// ExchangeSteps returns shard's ordered exchange steps starting at the copy
// op at body index op, and the end of the body span [op, end) they cover.
// Without Options.Agg the span is the op alone and each of the shard's work
// items yields its consume step and then one single-member produce step per
// produced pair. With it the whole exchange phase is covered at its head op
// — every phase op's consume steps in body order, then the phase's
// aggregation groups — and the phase's other ops cover nothing (end == op).
// The lists are derived from the specialization tables on every call, so a
// table corrupted after compilation corrupts what both executor and
// certifier see.
func (c *Compiled) ExchangeSteps(op, shard int) (steps []ExchangeStep, end int) {
	spec, agg := &c.Spec, c.Opts.Agg
	end = op + 1
	var groups []AggGroup
	if agg {
		pi := spec.PhaseOf[op]
		if pi < 0 || spec.Phases[pi].Start != op {
			return nil, op
		}
		end, groups = spec.Phases[pi].End, spec.Phases[pi].ByShard[shard]
	}
	// Size the list (at most one consume step per work item) and the one
	// backing array every member slice of the list is a window of.
	nsteps, nmem := len(groups), 0
	for gi := range groups {
		nmem += len(groups[gi].Members)
	}
	for i := op; i < end; i++ {
		for _, w := range spec.Ops[i].Copy.PerShard[shard] {
			nsteps++
			if !agg {
				nsteps, nmem = nsteps+len(w.ProdPairs), nmem+len(w.ProdPairs)
			}
		}
	}
	steps = make([]ExchangeStep, 0, nsteps)
	members := make([]StepMember, 0, nmem)
	produce := func(dst int32, pairs ...AggPair) {
		at := len(members)
		for _, m := range pairs {
			members = append(members, StepMember{m, c.chained(int(m.Op), int(m.Pair))})
		}
		steps = append(steps, ExchangeStep{Produce: true, DstShard: dst, Members: members[at:len(members):len(members)]})
	}
	for i := op; i < end; i++ {
		cs := spec.Ops[i].Copy
		for _, w := range cs.PerShard[shard] {
			if w.Consumer {
				steps = append(steps, ExchangeStep{Op: int32(i), GroupStart: int32(w.GroupStart), GroupEnd: int32(w.GroupEnd)})
			}
			if agg {
				continue // produced pairs travel in the phase's groups
			}
			for _, k := range w.ProdPairs {
				produce(cs.DstShard[k], AggPair{Op: int32(i), Pair: int32(k)})
			}
		}
	}
	for gi := range groups {
		produce(groups[gi].DstShard, groups[gi].Members...)
	}
	return steps, end
}

// chained reports whether pair k of the copy op at body index op waits on
// pair k-1's done event: a reduction whose predecessor folds into the same
// destination, unless aggregation carries the predecessor in the same
// message (AggChainExternal).
func (c *Compiled) chained(op, k int) bool {
	cp := c.Body[op].Copy
	if cp.Reduce == region.ReduceNone {
		return false
	}
	if c.Opts.Agg {
		return AggChainExternal(cp, c.Spec.Ops[op].Copy, k)
	}
	return k > 0 && cp.Pairs[k-1].Dst == cp.Pairs[k].Dst
}
