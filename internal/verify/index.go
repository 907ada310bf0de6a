package verify

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/geometry"
)

// index is what every replay of one compiled loop needs and no prune
// decision changes, computed once per plan: the plan's instance numbering
// (cr.Index: dense instance keys, each copy pair's keys, each launch
// argument's slot, each colour's shard), each slot's subregions, and the
// gathered exchange step lists. Replays write the exchanges' sync tables:
// one replay at a time.
type index struct {
	*cr.Index
	c         *cr.Compiled
	spaces    [][]geometry.IndexSpace // by slot, then colour index
	exchanges []*exchange             // by the body op the step lists start at
}

// newIndex indexes a compiled loop. What the tables cannot hold is an error,
// not an index panic: malformed exchanges, and whatever cr.NewIndex
// rejects.
func newIndex(c *cr.Compiled) (*index, error) {
	if err := exchangesWellFormed(c); err != nil {
		return nil, err
	}
	cix, err := cr.NewIndex(c)
	if err != nil {
		return nil, err
	}
	ix := &index{Index: cix, c: c, spaces: make([][]geometry.IndexSpace, len(cix.Slots)), exchanges: make([]*exchange, len(c.Body))}
	for s, slot := range cix.Slots {
		ix.spaces[s] = make([]geometry.IndexSpace, len(c.Domain))
		for ci, col := range c.Domain {
			ix.spaces[s][ci] = slot.Part.Sub(col).IndexSpace()
		}
	}
	for bi, op := range c.Body {
		if op.Copy != nil {
			ix.exchanges[bi] = newExchange(c, bi)
		}
	}
	return ix, nil
}

// exchangesWellFormed bounds-checks the compiled exchanges so the replay
// cannot index out of range on corrupted input: every exchange spans copy
// ops only and lists one step list per shard, whose steps name shards,
// covered ops and pairs that exist — a consume step a non-empty group, a
// chained member a predecessor. Semantic divergence is CheckSpec's and
// CheckAggTables' job; this only guards the replay itself.
func exchangesWellFormed(c *cr.Compiled) error {
	xs, ns := c.Exchanges, c.Opts.NumShards
	if len(xs) != len(c.Body) {
		return fmt.Errorf("verify: %d exchanges for a %d-op body", len(xs), len(c.Body))
	}
	for i, x := range xs {
		if x.End == i {
			continue
		}
		if x.End < i || x.End > len(c.Body) {
			return fmt.Errorf("verify: exchange at op %d spans [%d,%d) outside the %d-op body", i, i, x.End, len(c.Body))
		}
		for op := i; op < x.End; op++ {
			if c.Body[op].Copy == nil {
				return fmt.Errorf("verify: exchange at op %d spans body op %d, not a copy", i, op)
			}
		}
		if len(x.Steps) != ns {
			return fmt.Errorf("verify: exchange at op %d has step lists for %d shards, want %d", i, len(x.Steps), ns)
		}
		// pairs is the pair count of a covered op, -1 outside the span.
		pairs := func(op int32) int32 {
			if int(op) < i || int(op) >= x.End {
				return -1
			}
			return int32(len(c.Body[op].Copy.Pairs))
		}
		for s, steps := range x.Steps {
			for si, st := range steps {
				bad := st.Produce && (st.DstShard < 0 || int(st.DstShard) >= ns || len(st.Members) == 0) ||
					!st.Produce && (st.GroupStart < 0 || st.GroupStart >= st.GroupEnd || st.GroupEnd > pairs(st.Op))
				for _, m := range st.Members {
					bad = bad || m.Pair < 0 || m.Pair >= pairs(m.Op) || m.Chain && m.Pair == 0
				}
				if bad {
					return fmt.Errorf("verify: exchange at op %d shard %d step %d names a shard, op or pair outside the exchange: %+v", i, s, si, st)
				}
			}
		}
	}
	return nil
}

// newExchange gathers every shard's exchange step list starting at body op
// op, and makes its per-iteration node tables.
func newExchange(c *cr.Compiled, op int) *exchange {
	x := &exchange{start: int32(op), lists: make([][]cr.ExchangeStep, c.Opts.NumShards)}
	end := op
	for sh := range x.lists {
		x.lists[sh], end = c.ExchangeSteps(op, sh)
	}
	x.end = int32(end)
	x.pairs, x.bar = make([][][3]nodeID, end-op), make([][2]int32, end-op)
	for i := range x.pairs {
		x.pairs[i] = make([][3]nodeID, len(c.Body[op+i].Copy.Pairs))
	}
	return x
}
