package verify

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/region"
)

// Mutation is one simulated compiler bug. A race mutation (Mutations) is a
// set of inserted synchronization edges deleted together (in every unrolled
// iteration — the static analogue of the compiler never emitting that
// sync); a liveness mutation (LivenessMutations) instead adds wait-for
// edges or suppresses a barrier arrival, modeling a miswired sync.
//
// Essential marks race mutations the verifier is guaranteed to detect:
// deleting them must break at least one conflicting pair, because the only
// happens-before route between ops of different colors is copy
// synchronization, so a fully de-synchronized cross-color pair cannot be
// covered by anything else. Non-essential mutations delete sync that MAY
// be transitively redundant (a same-color pair ordered through the source
// instance's local dependence chain, a reduction chain between
// element-disjoint applications): the verifier legitimately accepts those
// schedules, and the harness only checks that any findings it does produce
// point at the mutation (Covers).
type Mutation struct {
	// Name describes the mutation, e.g. "p2p-sync(copy 3, pair 7)".
	Name string `json:"name"`
	// Copies are the mutated copy ops' IDs and Dsts their destination
	// partitions. Deleting a copy's sync can break not only the copy's own
	// ordering but collateral task-to-task orderings on its destination
	// instances (the consumer clears its readers list when the sync takes
	// over protecting them), so findings are attributed to the mutation
	// when they involve a mutated copy or a destination.
	Copies []int    `json:"copies"`
	Dsts   []string `json:"dsts"`
	// Drop is the edge set handed to Check.
	Drop []EdgeID `json:"drop,omitempty"`
	// Essential race mutations must be detected (see above).
	Essential bool `json:"essential"`
	// Kinds are the finding kinds a liveness mutation may produce.
	Kinds []string `json:"kinds,omitempty"`

	// extra are the wait-for edges a liveness mutation adds; skip is one
	// plus the index of the barrier arrival it suppresses (0: none).
	extra []edge
	skip  int
}

// mutationOf starts a mutation of the one copy op cp.
func mutationOf(cp *cr.CopyOp, name string) Mutation {
	return Mutation{Name: name, Copies: []int{cp.ID}, Dsts: []string{cp.Dst.Name()}}
}

// Covers reports whether the finding is attributable to the mutation: a
// witness op — either side, or any op of a wait cycle — belongs to a
// mutated copy, or the racing instance belongs to a mutated copy's
// destination partition. The latter catches collateral races: the copy's
// consumer-side update clears the destination instance's reader list on
// the assumption that the deleted sync now orders those readers against
// later writers, so deleting it can expose a pure task-to-task race on the
// destination.
func (m Mutation) Covers(f Finding) bool {
	mutated := func(r OpRef) bool { return slices.Contains(m.Copies, r.Copy) }
	if mutated(f.A) || mutated(f.B) || slices.ContainsFunc(f.Cycle, mutated) {
		return true
	}
	return slices.ContainsFunc(m.Dsts, func(d string) bool { return strings.HasPrefix(f.Instance, d+"[") })
}

// Mutations enumerates the single-sync deletions of the analyzed schedule,
// exchange phase by exchange phase in body order (phases). Per phase:
//
//   - under point-to-point sync each transfer contributes the deletion of
//     all its sync, every member's war, done and chain edges together (the
//     compiler forgot to wire the transfer at all). A plain plan's transfer
//     is one pair; an aggregated plan's is one merged message, whose
//     per-member sync is partially redundant BY DESIGN (the message waits
//     the union of its members' preconditions), so only the whole group's
//     deletion is guaranteed to strip every route;
//   - under barriers each phase op contributes the deletion of both its
//     barriers (merged messages wait every phase barrier, so dropping one
//     op's pair unprotects exactly that op's destinations);
//   - then each reduction op of the phase contributes chain-only deletions
//     (chainMutations).
//
// An aggregated plan's mutation names carry an "agg-" prefix.
func (a *Analysis) Mutations() []Mutation {
	c, tag := a.c, ""
	if c.Opts.Agg {
		tag = "agg-"
	}
	chains := a.g.labels(EdgeChain)
	var out []Mutation
	for pi, ph := range a.phases() {
		switch {
		case c.Opts.Sync == cr.BarrierSync:
			for op := ph[0]; op < ph[1]; op++ {
				out = append(out, a.barrierMutation(tag, op))
			}
		case c.Opts.Agg:
			for s, steps := range c.Exchanges[ph[0]].Steps {
				gi := 0
				for _, st := range steps {
					if st.Produce {
						out = append(out, a.syncMutation(fmt.Sprintf("agg-group-sync(phase %d, shard %d, group %d)", pi, s, gi), st.Members...))
						gi++
					}
				}
			}
		default:
			cp := c.Body[ph[0]].Copy
			for k := range cp.Pairs {
				out = append(out, a.syncMutation(fmt.Sprintf("p2p-sync(copy %d, pair %d)", cp.ID, k), cr.StepMember{AggPair: cr.AggPair{Op: int32(ph[0]), Pair: int32(k)}}))
			}
		}
		for op := ph[0]; op < ph[1]; op++ {
			out = append(out, chainMutations(tag, c.Body[op].Copy, chains)...)
		}
	}
	return out
}

// phases returns the body spans [start, end) of the analyzed plan's
// exchange phases: the compiled exchanges under aggregation, and otherwise
// each copy op with pairs. An aggregated phase may span a copy op with no
// pairs; its barrier deletion is still enumerated.
func (a *Analysis) phases() [][2]int {
	var out [][2]int
	for i, x := range a.c.Exchanges {
		if x.End > i && (a.c.Opts.Agg || len(a.c.Body[i].Copy.Pairs) > 0) {
			out = append(out, [2]int{i, x.End})
		}
	}
	return out
}

// syncMutation deletes the whole sync of one transfer carrying members.
// A plain same-color pair can be ordered through the source instance's own
// dependence chain (the consumer task may also write the source); a
// cross-color pair — or any reduction application — has no route to its
// later consumers but this sync. Without a later consumer only backward
// (write-after-read) ordering is at stake, and that may be transitively
// covered by other copies. So the deletion is essential when some member
// is consumed later and some member is cross-color or a reduction.
func (a *Analysis) syncMutation(name string, members ...cr.StepMember) Mutation {
	m := Mutation{Name: name}
	consumed, crossOrReduce := false, false
	for _, mem := range members {
		cp, k := a.c.Body[mem.Op].Copy, int(mem.Pair)
		m.Drop = append(m.Drop,
			EdgeID{Class: EdgeWAR, Copy: cp.ID, Pair: k},
			EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: k},
			EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
		m.Copies = appendUnique(m.Copies, cp.ID)
		m.Dsts = appendUnique(m.Dsts, cp.Dst.Name())
		consumed = consumed || a.laterConsumer(cp, int(mem.Op))
		crossOrReduce = crossOrReduce || cp.Pairs[k].Src != cp.Pairs[k].Dst || cp.Reduce != region.ReduceNone
	}
	m.Essential = consumed && crossOrReduce
	return m
}

// barrierMutation deletes both barriers of the copy op at body index bi.
func (a *Analysis) barrierMutation(tag string, bi int) Mutation {
	cp := a.c.Body[bi].Copy
	cross := false
	for _, pr := range cp.Pairs {
		cross = cross || pr.Src != pr.Dst
	}
	m := mutationOf(cp, fmt.Sprintf("%sbarrier(copy %d)", tag, cp.ID))
	m.Drop = []EdgeID{
		{Class: EdgeBarrier, Copy: cp.ID, Pair: 0},
		{Class: EdgeBarrier, Copy: cp.ID, Pair: 1},
	}
	m.Essential = a.laterConsumer(cp, bi) && (cross || cp.Reduce != region.ReduceNone)
	return m
}

// chainMutations deletes single reduction-chain edges, of those the
// schedule has (chains; under aggregation a link between two members of one
// message is the merged body's write order, structure with no sync to
// forget). The chain orders consecutive fold applications to one
// destination; deleting it races two writers exactly when their element
// sets intersect, so only intersecting consecutive pairs yield essential
// mutations.
func chainMutations(tag string, cp *cr.CopyOp, chains map[EdgeID]bool) []Mutation {
	if cp.Reduce == region.ReduceNone {
		return nil
	}
	var out []Mutation
	for _, gr := range groups(cp) {
		for k := gr[0] + 1; k < gr[1]; k++ {
			id := EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k}
			if !chains[id] || !cp.Pairs[k-1].Overlap.Overlaps(cp.Pairs[k].Overlap) {
				continue
			}
			m := mutationOf(cp, fmt.Sprintf("%schain(copy %d, pair %d)", tag, cp.ID, k))
			m.Drop, m.Essential = []EdgeID{id}, true
			out = append(out, m)
		}
	}
	return out
}

// laterConsumer reports whether anything reads the copy's destination
// fields after the copy in the unrolled program: a finalization read-back
// (the destination is a disjoint written partition), a launch later in the
// same iteration, or — when the loop unrolls more than one iteration — any
// launch of the body (the next iteration's instance of it runs after the
// copy). A copy with no later consumer can race nobody forward: its sync
// only orders it against earlier readers, and that ordering may be
// legitimately covered by other copies' synchronization.
func (a *Analysis) laterConsumer(cp *cr.CopyOp, bi int) bool {
	for _, p := range a.c.WrittenDisjoint {
		if p == cp.Dst {
			return true
		}
	}
	for bj, op := range a.c.Body {
		l := op.Launch
		if l == nil || (bj <= bi && a.g.iters < 2) {
			continue
		}
		for ai, arg := range l.Args {
			p := l.Task.Params[ai]
			if arg.Part == cp.Dst &&
				(p.Priv == ir.PrivRead || p.Priv == ir.PrivReadWrite) &&
				region.SharedFields(p.Fields, cp.Fields) > 0 {
				return true
			}
		}
	}
	return false
}

func appendUnique[T comparable](xs []T, x T) []T {
	if slices.Contains(xs, x) {
		return xs
	}
	return append(xs, x)
}
