package verify

import (
	"math/rand"
	"testing"
)

// randomDAG builds an n-node graph whose edges respect a random hidden
// order, not node-id order — like the real happens-before graphs, where a
// sync event created late is waited on by a node created early.
func randomDAG(rng *rand.Rand, n, edges int) *graph {
	g := &graph{nodes: make([]node, n)}
	pos := rng.Perm(n) // node id -> position in the hidden order
	for g.edges.n < edges && n > 1 {
		u, v := nodeID(rng.Intn(n)), nodeID(rng.Intn(n))
		if pos[u] > pos[v] {
			u, v = v, u
		}
		if u != v {
			g.edge(u, v) // duplicates allowed: the builder emits them too
		}
	}
	g.succ.fill(g, nil, nil)
	return g
}

// dfsReach is the per-pair oracle: every node reachable from u by a
// non-empty path.
func dfsReach(succ *successors, u nodeID) []bool {
	seen := make([]bool, len(succ.off)-1)
	stack := append([]nodeID(nil), succ.of(u)...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[v] {
			seen[v] = true
			stack = append(stack, succ.of(v)...)
		}
	}
	return seen
}

func checkClosure(t *testing.T, name string, r *reachability, g *graph) {
	t.Helper()
	for u := range g.nodes {
		want := dfsReach(&g.succ, nodeID(u))
		for v := range g.nodes {
			if got := r.reaches(nodeID(u), nodeID(v)); got != want[v] {
				t.Fatalf("%s: reaches(%d, %d) = %v, DFS says %v", name, u, v, got, want[v])
			}
		}
	}
}

func TestClosureMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	backward := 0
	// Sizes on both sides of the 64-rank word boundary, sparse and dense.
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130, 200, 333} {
		for _, density := range []int{1, 3, 12} {
			g := randomDAG(rng, n, density*n)
			for _, part := range g.edges.parts {
				for _, e := range part {
					if e.to < e.from {
						backward++
					}
				}
			}
			r := &reachability{}
			r.closure(&g.succ)
			checkClosure(t, "fresh", r, g)
		}
	}
	if backward == 0 {
		t.Fatal("no edge runs against node-id order: rank indexing is untested")
	}
}

// TestClosureSlabReuse closes graphs of different sizes into one
// reachability, as PlanPrune does, and requires the answers a fresh slab
// gives: stale bits of a larger predecessor must not leak into a smaller
// graph's rows, nor a smaller slab be overrun by a larger graph.
func TestClosureSlabReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	big, small, bigger := randomDAG(rng, 300, 1500), randomDAG(rng, 70, 200), randomDAG(rng, 420, 900)
	shared := &reachability{}
	for i, g := range []*graph{big, small, big, bigger, small} {
		shared.closure(&g.succ)
		checkClosure(t, "reused", shared, g)
		fresh := &reachability{}
		fresh.closure(&g.succ)
		for u := range g.nodes {
			for v := range g.nodes {
				if shared.reaches(nodeID(u), nodeID(v)) != fresh.reaches(nodeID(u), nodeID(v)) {
					t.Fatalf("graph %d: reused slab disagrees with a fresh one at (%d, %d)", i, u, v)
				}
			}
		}
	}
	if len(shared.bits) >= 420*((420+63)/64) {
		t.Errorf("slab holds %d words for 420 nodes: the zero lower triangle is being stored", len(shared.bits))
	}
}

func TestClosureRejectsCycle(t *testing.T) {
	g := &graph{nodes: make([]node, 3)}
	g.edge(0, 1)
	g.edge(1, 2)
	g.edge(2, 0)
	g.succ.fill(g, nil, nil)
	if (&reachability{}).closure(&g.succ) {
		t.Fatal("closure accepted a cyclic graph")
	}
}

// TestCopyNodesFirstOccurrenceWins pins the index that replaced graph.find's
// linear scan to the scan's answer: the lowest-id node of an identity.
func TestCopyNodesFirstOccurrenceWins(t *testing.T) {
	g := &graph{}
	g.add(node{kind: kInit, copyID: -1})
	first := g.add(node{kind: kCopy, copyID: 3, sub: 1, iter: 0})
	g.add(node{kind: kCopy, copyID: 3, sub: 1, iter: 1})
	g.add(node{kind: kCopy, copyID: 3, sub: 1, iter: 0}) // a corrupted table's duplicate
	done := g.add(node{kind: kDone, copyID: 3, sub: 1, iter: 0})
	idx := g.copyNodes()
	if got := idx[nodeKey{kCopy, 3, 1, 0}]; got != first {
		t.Errorf("copy node resolves to %d, want the first occurrence %d", got, first)
	}
	if got := idx[nodeKey{kDone, 3, 1, 0}]; got != done {
		t.Errorf("done node resolves to %d, want %d", got, done)
	}
	if _, ok := idx[nodeKey{kWar, 3, 1, 0}]; ok {
		t.Error("absent war node found")
	}
	if len(idx) != 3 {
		t.Errorf("index has %d entries, want 3 (control-thread nodes are not indexed)", len(idx))
	}
}
