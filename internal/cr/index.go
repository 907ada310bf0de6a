package cr

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Index is the one numbering of a compiled loop's physical instances, read
// by the SPMD executor (internal/spmd) and the schedule certifier
// (internal/verify) alike. An instance is a slot and a colour: the slots
// are c.UsedParts in order, then each reduce parameter of each body launch
// in body order, at first use (the launch's private reduction
// temporaries); an instance's key is slot*len(c.Domain) plus the colour's
// index in c.Domain, so both readers keep per-instance state in dense
// tables.
// NewIndex builds it on demand: nothing caches it on the plan, so a plan
// corrupted after compiling is indexed as it stands.
type Index struct {
	colors int32
	Slots  []Slot    // by slot
	Shards []int32   // by colour index: the shard owning the colour
	Args   [][]int32 // body op -> launch argument -> slot
	// Per copy (by body op, and parallel to c.InitCopies) and pair, the keys
	// the pair reads and writes.
	Body, Inits [][][2]int32
	Finals      []int32 // the slots of c.WrittenDisjoint
}

// Slot is one instance, colourless: partition Part's subregion, or, when
// Launch is set, the reduction temporary of argument Arg of Launch over the
// subregion of Part, the partition that argument names.
type Slot struct {
	Part   *region.Partition
	Launch *ir.Launch
	Arg    int
}

// Key is the key of slot's instance of the colour with index ci.
func (ix *Index) Key(slot int32, ci int) int32 { return slot*ix.colors + int32(ci) }

// Split is Key's inverse.
func (ix *Index) Split(key int32) (slot int32, ci int) { return key / ix.colors, int(key % ix.colors) }

// Keys is the number of instances: every key is below it.
func (ix *Index) Keys() int { return len(ix.Slots) * int(ix.colors) }

// Shard is the shard owning the colour of an instance key.
func (ix *Index) Shard(key int32) int32 { return ix.Shards[key%ix.colors] }

// NewIndex indexes a compiled loop. What the tables cannot hold is an
// error, not an index panic: a pair colour outside c.Domain, a reduce copy
// folding a temporary no body launch reduces into, a partition outside
// c.UsedParts.
func NewIndex(c *Compiled) (*Index, error) {
	n := len(c.Domain)
	ix := &Index{colors: int32(n), Shards: make([]int32, n), Args: make([][]int32, len(c.Body)), Body: make([][][2]int32, len(c.Body))}
	var err error // the first defect found
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("cr: "+format, args...)
		}
	}
	pos := make(map[geometry.Point]int32, n)
	for i, col := range c.Domain {
		pos[col], ix.Shards[i] = int32(i), int32(c.ShardOf[col])
	}
	parts := make(map[*region.Partition]int32, len(c.UsedParts))
	for i, part := range c.UsedParts {
		parts[part] = int32(i)
		ix.Slots = append(ix.Slots, Slot{Part: part})
	}
	slotOf := func(part *region.Partition) int32 {
		s, ok := parts[part]
		if !ok {
			fail("partition %s is not a used partition of the loop", part.Name())
		}
		return s
	}
	temps := make(map[Slot]int32) // by launch and argument
	for bi, op := range c.Body {
		if l := op.Launch; l != nil {
			ix.Args[bi] = make([]int32, len(l.Args))
			for ai, a := range l.Args {
				s := slotOf(a.Part)
				if t := (Slot{Launch: l, Arg: ai}); l.Task.Params[ai].Priv == ir.PrivReduce {
					if _, ok := temps[t]; !ok {
						temps[t] = int32(len(ix.Slots))
						ix.Slots = append(ix.Slots, Slot{Part: a.Part, Launch: l, Arg: ai})
					}
					s = temps[t]
				}
				ix.Args[bi][ai] = s
			}
		}
	}
	// pairKeys resolves a copy's pairs to instance keys. The source is the
	// reducing launch's temporary for a reduction copy, and the source
	// partition's instance for a plain one (every init copy is plain).
	pairKeys := func(cp *CopyOp) [][2]int32 {
		src, dst := int32(-1), slotOf(cp.Dst)
		if cp.Reduce == region.ReduceNone {
			src = slotOf(cp.Src)
		} else if s, ok := temps[Slot{Launch: cp.SrcLaunch, Arg: cp.SrcArg}]; ok {
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
			keys[k] = [2]int32{ix.Key(src, int(si)), ix.Key(dst, int(di))}
		}
		return keys
	}
	for bi, op := range c.Body {
		if op.Copy != nil {
			ix.Body[bi] = pairKeys(op.Copy)
		}
	}
	for _, cp := range c.InitCopies {
		ix.Inits = append(ix.Inits, pairKeys(cp))
	}
	for _, part := range c.WrittenDisjoint {
		ix.Finals = append(ix.Finals, slotOf(part))
	}
	if err != nil {
		return nil, err
	}
	return ix, nil
}
