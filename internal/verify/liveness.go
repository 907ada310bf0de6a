package verify

// Static deadlock-freedom: the liveness pass of the schedule certifier.
//
// The happens-before graph built by graph.go doubles as the wait-for graph
// of the compiled schedule: an edge u -> v means the executor makes v wait
// on u (a task precondition, a copy's war wait, a done trigger, a barrier
// arrival, a reduction-chain link). A correct schedule can always make
// progress, which statically means three things:
//
//  1. The wait-for graph is acyclic. A cycle is a deadlock: every op on it
//     waits, transitively, on itself — the static analogue of the DES's
//     realm.DeadlockError, which both backends return when every agent
//     left is blocked and nothing pending can fire.
//  2. Every synchronization event with waiters has a trigger. A war/done
//     event nothing ever connects is never triggered, so its waiters block
//     forever even though no cycle exists.
//  3. Every global barrier's arrival count equals its participant count. A
//     shard that skips an arrival leaves the barrier one generation short
//     and every arriving shard blocked — a phase-count mismatch.
//
// The executor satisfies all three by construction; the point of the pass
// is to certify that compiled (and especially *pruned* and *rebuilt*)
// schedules still do, and to reject the mutation harness's miswirings with
// a concrete witness naming the blocked shard, iteration, and sync pair.

import (
	"fmt"
	"strings"

	"repro/internal/cr"
)

// CheckLiveness certifies deadlock-freedom of the analyzed schedule:
// acyclicity of the wait-for graph, no never-triggered sync events, and
// matching barrier arrival counts. The returned report carries concrete
// witnesses (the wait cycle, the orphaned event, the short barrier).
func (a *Analysis) CheckLiveness() *Report { return a.CheckLivenessMutated(Mutation{}) }

// CheckLivenessMutated re-runs the liveness checks under one mutation: its
// extra wait-for edges added and its barrier arrival suppressed. A race
// mutation adds no edge and suppresses no arrival.
func (a *Analysis) CheckLivenessMutated(m Mutation) *Report {
	counts.liveness.Add(1)
	g := a.g
	rep := &Report{Pass: "liveness", Findings: []Finding{}, Stats: Stats{
		Nodes: len(g.nodes),
		Edges: g.edges.n + len(m.extra),
		Iters: g.iters,
	}}

	succ := &g.succ
	if len(m.extra) > 0 {
		succ = a.mutated.fill(g, nil, m.extra)
	}

	// 1. Cycle detection: Kahn's algorithm. Nodes left unprocessed all lie
	// on or downstream of a cycle; a successor walk restricted to them
	// must re-visit a node, and the revisit closes a concrete cycle.
	indeg := make([]int32, len(g.nodes))
	if order := topoSort(succ, indeg, make([]nodeID, 0, len(indeg))); len(order) != len(indeg) {
		rep.Findings = append(rep.Findings, a.cycleFinding(succ, indeg))
	}

	// 2. Never-triggered sync events: a war/done node with waiters but no
	// trigger. (Only reachable via pruning or miswiring — the conservative
	// builder always connects both sides.)
	hasPred := make([]bool, len(g.nodes))
	for _, v := range succ.to {
		hasPred[v] = true
	}
	for i := range g.nodes {
		nd := &g.nodes[i]
		waiters := succ.of(nodeID(i))
		if nd.kind != kWar && nd.kind != kDone || hasPred[i] || len(waiters) == 0 {
			continue
		}
		blocked := a.opRef(access{n: waiters[0]})
		ev := a.opRef(access{n: nodeID(i)})
		rep.Findings = append(rep.Findings, Finding{
			Kind: "never-triggered",
			A:    ev,
			B:    blocked,
			Detail: fmt.Sprintf(
				"%s event of copy %d pair %d (iter %d) has %d waiter(s) but no trigger; first blocked op: %s",
				ev.Kind, ev.Copy, ev.Pair, ev.Iter, len(waiters), blocked),
		})
	}

	// 3. Barrier arrival counts.
	for bi, ba := range g.arrivals {
		got := ba.got
		if bi+1 == m.skip {
			got--
		}
		if got == ba.want {
			continue
		}
		ref := a.opRef(access{n: ba.b})
		rep.Findings = append(rep.Findings, Finding{
			Kind: "phase-mismatch",
			A:    ref,
			B:    ref,
			Detail: fmt.Sprintf(
				"barrier phase %d of copy %d (iter %d) expects %d arrivals but gets %d: the barrier never triggers and every arrived shard blocks",
				ba.phase, ba.copyID, ba.iter, ba.want, got),
		})
	}
	return rep
}

// cycleFinding extracts one concrete wait cycle from the residue of an
// incomplete topological sort (final indeg > 0 marks exactly the
// unprocessed nodes) and renders it as a witness. Every residue node has a
// residue predecessor — its positive indegree counts exactly the
// unprocessed preds — so a backward walk must revisit a node, and the
// revisit closes a cycle; residue *successors* need not exist (a sink
// downstream of a cycle is residue too), which is why the walk goes
// backward.
func (a *Analysis) cycleFinding(succ *successors, indeg []int32) Finding {
	pred := make([]nodeID, len(indeg))
	for i := range pred {
		pred[i] = -1
	}
	for u := range indeg {
		if indeg[u] <= 0 {
			continue
		}
		for _, v := range succ.of(nodeID(u)) {
			if indeg[v] > 0 && pred[v] < 0 {
				pred[v] = nodeID(u)
			}
		}
	}
	start := nodeID(-1)
	for i := range indeg {
		if indeg[i] > 0 {
			start = nodeID(i)
			break
		}
	}
	pos := map[nodeID]int{}
	var rev []nodeID
	u := start
	for {
		if at, ok := pos[u]; ok {
			rev = append(rev[at:], u) // close the cycle, first == last
			break
		}
		pos[u] = len(rev)
		rev = append(rev, u)
		u = pred[u]
	}
	// rev runs against the wait direction; reverse into wait order.
	path := make([]nodeID, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	refs := make([]OpRef, len(path))
	names := make([]string, len(path))
	for i, n := range path {
		refs[i] = a.opRef(access{n: n})
		names[i] = fmt.Sprintf("%s(copy %d, pair %d, iter %d, shard %d)",
			refs[i].Kind, refs[i].Copy, refs[i].Pair, refs[i].Iter, refs[i].Shard)
	}
	f := Finding{
		Kind:  "cycle",
		A:     refs[0],
		Cycle: refs,
		Detail: fmt.Sprintf("wait-for cycle of length %d: %s",
			len(path)-1, strings.Join(names, " -> ")),
	}
	if len(refs) > 1 {
		f.B = refs[1]
	}
	return f
}

// LivenessMutations enumerates the sync miswirings for the analyzed loop's
// body copies: wait-for edges ADDED to (or a barrier arrival removed from)
// the schedule, modeling a compiler or executor that misorders or inverts
// an inserted synchronization. Edge *deletions* cannot deadlock a DAG, so
// the harness rewires: each mutation either closes a structural cycle
// through edges the clean schedule is guaranteed to contain, or starves a
// barrier — which is why 100% detection is demanded, not merely hoped for:
//
//   - invert-prod-sync: the producer waits on its own completion sync
//     (done_k -> copy_k); with the existing copy_k -> done_k trigger this
//     is a two-cycle. Models swapped wait/arrive endpoints.
//   - misorder-cons-release: the consumer connects its release after
//     merging the pair's done (done_k -> war_k); with war_k -> copy_k ->
//     done_k this closes a three-cycle.
//   - invert-chain: the fold chain runs backwards (done_k -> copy_{k-1});
//     with copy_{k-1} -> done_{k-1} -> copy_k -> done_k this closes a
//     four-cycle. Only emitted where a chain edge exists.
//   - swap-barriers: arrival at the first barrier waits on the second
//     (b2 -> b1); with b1 -> b2 this is a two-cycle.
//   - skip-arrival: one shard never arrives at the first barrier — a
//     phase-count mismatch, not a cycle.
func (a *Analysis) LivenessMutations() []Mutation {
	var out []Mutation
	g := a.g
	nodes := g.copyNodes()
	find := func(kind nodeKind, cp *cr.CopyOp, sub int) nodeID {
		if n, ok := nodes[nodeKey{kind, int32(cp.ID), int32(sub), 0}]; ok {
			return n
		}
		return -1 // absent, e.g. a pruned sync event
	}
	// cycle adds the wait-for edge from -> to, which closes a cycle.
	cycle := func(cp *cr.CopyOp, name string, from, to nodeID) {
		m := mutationOf(cp, name)
		m.Kinds, m.extra = []string{"cycle"}, []edge{{from: from, to: to}}
		out = append(out, m)
	}
	chains := g.labels(EdgeChain)
	for _, op := range a.c.Body {
		cp := op.Copy
		if cp == nil || len(cp.Pairs) == 0 {
			continue
		}
		for k := range cp.Pairs {
			cn, dn, wn := find(kCopy, cp, k), find(kDone, cp, k), find(kWar, cp, k)
			if cn >= 0 && dn >= 0 {
				cycle(cp, fmt.Sprintf("invert-prod-sync(copy %d, pair %d)", cp.ID, k), dn, cn)
			}
			if cn >= 0 && dn >= 0 && wn >= 0 {
				cycle(cp, fmt.Sprintf("misorder-cons-release(copy %d, pair %d)", cp.ID, k), dn, wn)
			}
			if k > 0 {
				// Invert the chain only where the clean graph has one.
				prevCn := find(kCopy, cp, k-1)
				if dn >= 0 && prevCn >= 0 && chains[EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k}] {
					cycle(cp, fmt.Sprintf("invert-chain(copy %d, pair %d)", cp.ID, k), dn, prevCn)
				}
			}
		}
		b1, b2 := find(kBarrier, cp, 0), find(kBarrier, cp, 1)
		if b1 >= 0 && b2 >= 0 {
			cycle(cp, fmt.Sprintf("swap-barriers(copy %d)", cp.ID), b2, b1)
			for ai, ba := range g.arrivals {
				if ba.b == b1 {
					m := mutationOf(cp, fmt.Sprintf("skip-arrival(copy %d)", cp.ID))
					m.Kinds, m.skip = []string{"phase-mismatch"}, ai+1
					out = append(out, m)
					break
				}
			}
		}
	}
	return out
}
