package verify

import (
	"fmt"
	"slices"

	"repro/internal/region"
)

// ConflictPair is one enumerated conflict as the external tests see it:
// the two accesses by index, oriented, and the cross-shard flag.
type ConflictPair struct {
	Earlier, Later int32
	CrossShard     bool
}

// ConflictPairs lists the analysis's conflicts in enumeration order.
func (a *Analysis) ConflictPairs() []ConflictPair {
	out := make([]ConflictPair, len(a.conflicts))
	for i, cf := range a.conflicts {
		out[i] = ConflictPair{cf.earlier, cf.later, cf.crossShard}
	}
	return out
}

// OracleConflictPairs re-derives the conflicts the way the checker did
// before it went shallow-first: accesses bucketed by hashing the instance
// identity, in first-access order, and a pair kept when the materialised
// field intersection and the complete IndexSpace intersection are both
// non-empty. Orientation is the old two-sided triple comparison.
func (a *Analysis) OracleConflictPairs() []ConflictPair {
	g, accs := a.g, a.accs
	byInst := make(map[instRef][]int)
	var order []instRef
	for i := range accs {
		r := a.refs[accs[i].inst]
		if _, ok := byInst[r]; !ok {
			order = append(order, r)
		}
		byInst[r] = append(byInst[r], i)
	}
	less := func(x, y nodeID) bool {
		a, b := &g.nodes[x], &g.nodes[y]
		if a.iter != b.iter {
			return a.iter < b.iter
		}
		if a.body != b.body {
			return a.body < b.body
		}
		return a.sub < b.sub
	}
	var out []ConflictPair
	for _, inst := range order {
		idxs := byInst[inst]
		for x := 0; x < len(idxs); x++ {
			for y := x + 1; y < len(idxs); y++ {
				a, b := &accs[idxs[x]], &accs[idxs[y]]
				if a.n == b.n || (!a.write && !b.write) {
					continue
				}
				var fi []region.FieldID
				for _, f := range a.fields {
					for _, h := range b.fields {
						if f == h {
							fi = append(fi, f)
							break
						}
					}
				}
				if len(fi) == 0 || a.space.Intersect(b.space).Empty() {
					continue
				}
				e, l := idxs[x], idxs[y]
				if less(b.n, a.n) || (!less(a.n, b.n) && b.n < a.n) {
					e, l = l, e
				}
				sa, sb := g.nodes[a.n].shard, g.nodes[b.n].shard
				out = append(out, ConflictPair{int32(e), int32(l), sa >= 0 && sb >= 0 && sa != sb})
			}
		}
	}
	return out
}

// Instances reports how many distinct instances the analysis saw accessed.
func (a *Analysis) Instances() int { return a.insts }

// SameAccesses reports where the analysis's access list first differs from
// want's, or nil when the two are equal. An access's node is compared by
// the node it names, not by its id, which prunes shift.
func (a *Analysis) SameAccesses(want *Analysis) error {
	if len(a.accs) != len(want.accs) {
		return fmt.Errorf("%d accesses, want %d", len(a.accs), len(want.accs))
	}
	for i := range a.accs {
		x, y := &a.accs[i], &want.accs[i]
		if a.g.nodes[x.n] != want.g.nodes[y.n] || x.inst != y.inst || a.refs[x.inst] != want.refs[y.inst] ||
			x.write != y.write || !slices.Equal(x.fields, y.fields) || !x.space.Equal(y.space) {
			return fmt.Errorf("access %d is %+v on %+v, want %+v on %+v", i, *x, a.g.nodes[x.n], *y, want.g.nodes[y.n])
		}
	}
	return nil
}
