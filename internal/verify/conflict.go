package verify

import (
	"slices"

	"repro/internal/region"
)

// conflict is a pair of accesses to the same instance with intersecting
// fields, intersecting elements, and at least one writer, oriented by the
// sequential program order. It names the two accesses by index and nothing
// more: whether they conflict is the paper's shallow question (§3.3), and
// the complete one — which elements, which fields — is asked by finding,
// for the pairs that are actually reported.
type conflict struct {
	earlier, later int32 // indices into Analysis.accs
}

// enumerateConflicts groups the recorded accesses by physical instance and
// tabulates every conflicting pair, along with the number of distinct
// instances accessed and of pairs that cross shards. Instances are visited
// in first-access order, so the table is deterministic.
func enumerateConflicts(g *graph, accs []access, ninst int) (out chunks[conflict], insts, cross int) {
	// Counting sort: byInst is a run per instance, in first-access order.
	at := make([]int32, ninst) // id's count, then its run's start, then its end
	var order []instID
	for i := range accs {
		id := accs[i].inst
		if at[id] == 0 {
			order = append(order, id)
		}
		at[id]++
	}
	start := int32(0)
	for _, id := range order {
		start, at[id] = start+at[id], start
	}
	byInst := make([]int32, len(accs))
	for i := range accs {
		id := accs[i].inst
		byInst[at[id]], at[id] = int32(i), at[id]+1
	}
	out.size, start = len(accs), 0
	for _, id := range order {
		run := byInst[start:at[id]]
		start = at[id]
		for x, ia := range run {
			a := &accs[ia]
			for _, ib := range run[x+1:] {
				b := &accs[ib]
				if a.n == b.n {
					// One op's accesses to the same instance (a copy reads
					// and writes overlap regions of a self-fold) need no
					// ordering with themselves.
					continue
				}
				if !a.write && !b.write {
					continue
				}
				if region.SharedFields(a.fields, b.fields) == 0 || !a.space.Overlaps(b.space) {
					continue
				}
				cf := conflict{earlier: ia, later: ib}
				if g.seqBefore(b.n, a.n) {
					cf.earlier, cf.later = ib, ia
				}
				if g.crossShard(a.n, b.n) {
					cross++
				}
				out.push(cf)
			}
		}
	}
	return out, len(order), cross
}

// reachability answers "is there a happens-before path from a to b" for
// all node pairs at once: one reverse-topological sweep computes each
// node's full successor set as a bitset, so every query is a bit test. The
// happens-before graph of a schedule built from well-formed tables is a DAG
// (events only wait on previously created events), and stays one when edges
// are removed.
//
// Bits are indexed by topological rank, not node id (real graphs have edges
// that run against id order), so everything at or below a node's own rank
// is provably zero: row r is stored from word r/64 on, in one slab of about
// n*words/2 words, and folding a successor's row in starts at the
// successor's own word. The zero value is ready to use; closure reuses the
// slab when it is large enough (PlanPrune closes ~23 graphs of one size).
type reachability struct {
	bits  []uint64
	words int
	rank  []int32  // node id -> topological rank
	topo  []nodeID // the order itself, kept as scratch for the next closure
}

// off is where rank's row starts in the slab: the 64 ranks sharing a first
// word b have rows of words-b words each.
func (r *reachability) off(rank int) int {
	b := rank >> 6
	return 64*(b*r.words-b*(b-1)/2) + (rank&63)*(r.words-b)
}

func (r *reachability) row(rank int) []uint64 {
	off := r.off(rank)
	return r.bits[off : off+r.words-rank>>6]
}

// closure computes the relation of the graph with the given successors.
// It reports false, with nothing computed, when the graph has a cycle:
// r.rank then holds the residual in-degrees cycleFinding walks.
func (r *reachability) closure(succ *successors) bool {
	counts.closures.Add(1)
	n := len(succ.off) - 1
	r.words = (n + 63) / 64
	r.rank = slices.Grow(r.rank[:0], n)[:n]
	clear(r.rank) // holds in-degrees until the order is known
	topo := topoSort(succ, r.rank, r.topo[:0])
	if len(topo) != n {
		return false
	}
	r.topo = topo
	for i, u := range topo {
		r.rank[u] = int32(i)
	}
	if size := r.off(n); cap(r.bits) < size {
		r.bits = make([]uint64, size)
	} else {
		r.bits = r.bits[:size]
		clear(r.bits)
	}
	for i := n - 1; i >= 0; i-- {
		row := r.row(i)
		for _, v := range succ.of(topo[i]) {
			rv := int(r.rank[v])
			w, bit := rv>>6-i>>6, uint64(1)<<(rv&63)
			if row[w]&bit != 0 {
				continue // v and so all it reaches are already folded in
			}
			row[w] |= bit
			dst := row[w:]
			for k, x := range r.row(rv) {
				dst[k] |= x
			}
		}
	}
	return true
}

// topoSort appends a topological order of succ's nodes to order (Kahn's
// algorithm) using the zeroed indeg as scratch. A cycle leaves the order
// short, and indeg positive on exactly the nodes on or downstream of it.
func topoSort(succ *successors, indeg []int32, order []nodeID) []nodeID {
	for _, v := range succ.to {
		indeg[v]++
	}
	for i := range indeg {
		if indeg[i] == 0 {
			order = append(order, nodeID(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range succ.of(order[head]) {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order
}

func (r *reachability) reaches(from, to nodeID) bool {
	rf, rt := int(r.rank[from]), int(r.rank[to])
	return rt > rf && r.row(rf)[rt>>6-rf>>6]&(1<<(rt&63)) != 0
}
