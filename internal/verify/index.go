package verify

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// index is what every replay of one compiled loop needs and no prune
// decision changes, computed once per plan: dense instance keys (slot*colors
// + colour index; a slot is a used partition or, after them, a reduce
// temporary), each copy pair's keys, each launch argument's slot, each
// colour's shard, each slot's subregions, and the gathered exchange step
// lists. Replays write the exchanges' sync tables: one replay at a time.
type index struct {
	c       *cr.Compiled
	colors  int32
	shardOf []int32                 // by colour index
	slots   []instRef               // by slot, colourless
	spaces  [][]geometry.IndexSpace // by slot, then colour index
	args    [][]int32               // body op -> launch argument -> slot
	// Per copy (by body op, and parallel to c.InitCopies) and pair, the keys
	// the pair reads and writes; the slots of c.WrittenDisjoint.
	body, inits [][][2]int32
	finals      []int32
	exchanges   []*exchange // by the body op the step lists start at
}

func (ix *index) key(slot int32, ci int) int32 { return slot*ix.colors + int32(ci) }

// shard is the shard owning the colour of an instance key.
func (ix *index) shard(key int32) int32 { return ix.shardOf[key%ix.colors] }

// ref is the identity of the instance with the given key.
func (ix *index) ref(key int32) instRef {
	r := ix.slots[key/ix.colors]
	r.color = ix.c.Domain[key%ix.colors]
	return r
}

// newIndex indexes a compiled loop. What the tables cannot hold is an error,
// not an index panic: a pair colour outside c.Domain, a reduce copy folding
// a temporary no body launch reduces into, a partition outside c.UsedParts,
// malformed aggregation tables.
func newIndex(c *cr.Compiled) (*index, error) {
	if c.Opts.Agg {
		// The replay indexes the aggregation tables; refuse malformed ones.
		if err := aggTablesWellFormed(c); err != nil {
			return nil, err
		}
	}
	n := len(c.Domain)
	ix := &index{c: c, colors: int32(n), shardOf: make([]int32, n), args: make([][]int32, len(c.Body)),
		body: make([][][2]int32, len(c.Body)), exchanges: make([]*exchange, len(c.Body))}
	var err error // the first defect found
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("verify: "+format, args...)
		}
	}
	pos := make(map[geometry.Point]int32, n)
	for i, col := range c.Domain {
		pos[col], ix.shardOf[i] = int32(i), int32(c.ShardOf[col])
	}
	slots := make(map[instRef]int32, len(c.UsedParts))
	addSlot := func(r instRef, sp []geometry.IndexSpace) {
		slots[r] = int32(len(ix.slots))
		ix.slots, ix.spaces = append(ix.slots, r), append(ix.spaces, sp)
	}
	for _, part := range c.UsedParts {
		sp := make([]geometry.IndexSpace, n)
		for ci, col := range c.Domain {
			sp[ci] = part.Sub(col).IndexSpace()
		}
		addSlot(instRef{part: part}, sp)
	}
	slotOf := func(part *region.Partition) int32 {
		s, ok := slots[instRef{part: part}]
		if !ok {
			fail("partition %s is not a used partition of the loop", part.Name())
		}
		return s
	}
	for bi, op := range c.Body {
		if l := op.Launch; l != nil {
			ix.args[bi] = make([]int32, len(l.Args))
			for ai, a := range l.Args {
				s := slotOf(a.Part)
				if t := (instRef{l: l, arg: ai}); l.Task.Params[ai].Priv == ir.PrivReduce {
					if _, ok := slots[t]; !ok {
						addSlot(t, ix.spaces[s])
					}
					s = slots[t]
				}
				ix.args[bi][ai] = s
			}
		}
	}
	// pairKeys resolves a copy's pairs to instance keys. The source is the
	// reducing launch's temporary for a reduction copy, and the source
	// partition's instance for a plain one (every init copy is plain).
	pairKeys := func(cp *cr.CopyOp) [][2]int32 {
		src, dst := int32(-1), slotOf(cp.Dst)
		if cp.Reduce == region.ReduceNone {
			src = slotOf(cp.Src)
		} else if s, ok := slots[instRef{l: cp.SrcLaunch, arg: cp.SrcArg}]; ok {
			src = s
		}
		keys := make([][2]int32, len(cp.Pairs))
		for k, pr := range cp.Pairs {
			si, sok := pos[pr.Src]
			di, dok := pos[pr.Dst]
			if !sok || !dok {
				fail("copy %d pair %d (%v -> %v) names a colour outside the launch domain", cp.ID, k, pr.Src, pr.Dst)
			} else if src < 0 {
				fail("copy %d pair %d folds the temporary of argument %d of its source launch, which no body launch reduces into", cp.ID, k, cp.SrcArg)
			}
			keys[k] = [2]int32{ix.key(src, int(si)), ix.key(dst, int(di))}
		}
		return keys
	}
	for bi, op := range c.Body {
		if op.Copy != nil {
			ix.body[bi], ix.exchanges[bi] = pairKeys(op.Copy), newExchange(c, bi)
		}
	}
	for _, cp := range c.InitCopies {
		ix.inits = append(ix.inits, pairKeys(cp))
	}
	for _, part := range c.WrittenDisjoint {
		ix.finals = append(ix.finals, slotOf(part))
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
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
