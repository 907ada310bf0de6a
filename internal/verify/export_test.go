package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/region"
)

// EdgeBytes is the size of one stored happens-before edge.
const EdgeBytes = unsafe.Sizeof(edge{})

// ConflictPair is one enumerated conflict as the external tests see it:
// the two accesses by index, oriented, and the cross-shard flag.
type ConflictPair struct {
	Earlier, Later int32
	CrossShard     bool
}

// ConflictPairs lists the analysis's conflicts in enumeration order.
func (a *Analysis) ConflictPairs() []ConflictPair {
	var out []ConflictPair
	for _, part := range a.conflicts.parts {
		for _, cf := range part {
			out = append(out, ConflictPair{cf.earlier, cf.later, a.g.crossShard(a.accs[cf.earlier].n, a.accs[cf.later].n)})
		}
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
	byInst := make(map[int32][]int)
	var order []int32
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

// SuccessorTableMismatch checks the analysis's successor table against its
// edge list, as built and with a random half of its sync labels dropped.
func (a *Analysis) SuccessorTableMismatch(rng *rand.Rand) error {
	return successorMismatch(a.g, &a.mutated, rng)
}

// RandomDAGSuccessorMismatch is SuccessorTableMismatch on a random DAG of
// n nodes whose edges carry random labels, half of them sync.
func RandomDAGSuccessorMismatch(rng *rand.Rand, n, edges int) error {
	g := randomDAG(rng, n, edges)
	for _, part := range g.edges.parts {
		for i := range part {
			if rng.Intn(2) == 0 {
				part[i].class, part[i].copy, part[i].pair = EdgeWAR+EdgeClass(rng.Intn(4)), int32(rng.Intn(5)), int32(rng.Intn(5))
			}
		}
	}
	return successorMismatch(g, &successors{}, rng)
}

// successorMismatch compares g.succ, and the table filled into scratch with
// a random half of g's sync labels dropped, against the edge list: each
// node's successors must be the to's of its kept edges, in list order.
func successorMismatch(g *graph, scratch *successors, rng *rand.Rand) error {
	seen, dropped := make(map[EdgeID]bool), make(map[EdgeID]bool)
	for _, part := range g.edges.parts {
		for _, e := range part {
			if l := e.label(); e.class != edgeStruct && !seen[l] {
				seen[l] = true
				dropped[l] = len(dropped) == 0 || rng.Intn(2) == 0
			}
		}
	}
	if len(dropped) == 0 {
		return fmt.Errorf("no sync label: the filtered table is untested")
	}
	scratch.fill(g, dropped, nil)
	for _, tc := range []struct {
		succ    *successors
		dropped map[EdgeID]bool
	}{{&g.succ, nil}, {scratch, dropped}} {
		want := make([][]nodeID, len(g.nodes))
		for _, part := range g.edges.parts {
			for _, e := range part {
				if e.class == edgeStruct || !tc.dropped[e.label()] {
					want[e.from] = append(want[e.from], e.to)
				}
			}
		}
		if len(tc.succ.off) != len(g.nodes)+1 {
			return fmt.Errorf("%d offsets for %d nodes", len(tc.succ.off), len(g.nodes))
		}
		for u := range want {
			if got := tc.succ.of(nodeID(u)); !slices.Equal(got, want[u]) {
				return fmt.Errorf("%d labels dropped: node %d has successors %v, its edges lead to %v", len(tc.dropped), u, got, want[u])
			}
		}
	}
	return nil
}

// Work is the certifier's work during one call of WorkOf: replays built,
// closures computed, liveness passes run and PlanPrune certifications.
type Work struct{ Builds, Closures, Liveness, Certifications int64 }

// WorkOf runs f and returns the work it did. Nothing else may certify
// meanwhile.
func WorkOf(f func()) Work {
	for _, n := range []*atomic.Int64{&counts.builds, &counts.closures, &counts.liveness, &counts.certifications} {
		n.Store(0)
	}
	f()
	return Work{counts.builds.Load(), counts.closures.Load(), counts.liveness.Load(), counts.certifications.Load()}
}
