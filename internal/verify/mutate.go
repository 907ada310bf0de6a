package verify

import (
	"fmt"
	"strings"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/region"
)

// Mutation is one simulated compiler bug: a set of inserted
// synchronization edges deleted together (in every unrolled iteration —
// the static analogue of the compiler never emitting that sync).
//
// Essential marks mutations the verifier is guaranteed to detect: deleting
// them must break at least one conflicting pair, because the only
// happens-before route between ops of different colors is copy
// synchronization, so a fully de-synchronized cross-color pair cannot be
// covered by anything else. Non-essential mutations delete sync that MAY
// be transitively redundant (a same-color pair ordered through the source
// instance's local dependence chain, a reduction chain between
// element-disjoint applications): the verifier legitimately accepts those
// schedules, and the harness only checks that any findings it does produce
// point at the mutated copy.
type Mutation struct {
	// Name describes the mutation, e.g. "p2p-sync(copy 3, pair 7)".
	Name string `json:"name"`
	// Copy is the CopyOp whose sync is deleted; Pair the pair index (or
	// barrier copy: -1 for the whole-op barrier deletion). Dst names the
	// copy's destination partition: deleting a copy's sync can break not
	// only the copy's own ordering but collateral task-to-task orderings on
	// its destination instances (the consumer clears its readers list when
	// the sync takes over protecting them), so findings are attributed to
	// the mutation when they involve the copy or its destination.
	Copy int    `json:"copy"`
	Pair int    `json:"pair"`
	Dst  string `json:"dst"`
	// Drop is the edge set handed to Check.
	Drop []EdgeID `json:"drop"`
	// Essential mutations must be detected (see above).
	Essential bool `json:"essential"`
}

// Mutations enumerates the single-sync deletions for the analyzed loop's
// body copies, in body order. For point-to-point sync each pair
// contributes one full-sync deletion (its war, done, and chain edges
// together); for barriers each copy contributes the deletion of both its
// barrier phases; reduction copies additionally contribute chain-only
// deletions for consecutive applications.
func (a *Analysis) Mutations() []Mutation {
	var out []Mutation
	chains := a.g.labels(EdgeChain)
	for bi, op := range a.c.Body {
		cp := op.Copy
		if cp == nil || len(cp.Pairs) == 0 {
			continue
		}
		if a.c.Opts.Sync == cr.BarrierSync {
			out = append(out, a.barrierMutations(cp, bi)...)
		} else {
			out = append(out, a.p2pMutations(cp, bi)...)
		}
		out = append(out, chainMutations(cp, chains)...)
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
				fieldsMeet(p.Fields, cp.Fields) {
				return true
			}
		}
	}
	return false
}

func (a *Analysis) p2pMutations(cp *cr.CopyOp, bi int) []Mutation {
	consumed := a.laterConsumer(cp, bi)
	out := make([]Mutation, 0, len(cp.Pairs))
	for k, pr := range cp.Pairs {
		out = append(out, Mutation{
			Name: fmt.Sprintf("p2p-sync(copy %d, pair %d)", cp.ID, k),
			Copy: cp.ID,
			Pair: k,
			Dst:  cp.Dst.Name(),
			Drop: []EdgeID{
				{Class: EdgeWAR, Copy: cp.ID, Pair: k},
				{Class: EdgeDone, Copy: cp.ID, Pair: k},
				{Class: EdgeChain, Copy: cp.ID, Pair: k},
			},
			// A plain same-color pair can be ordered through the source
			// instance's own dependence chain (the consumer task may also
			// write the source); a cross-color pair — or any reduction
			// application — has no route to its later consumers but this
			// sync. Without a later consumer only backward (write-after-
			// read) ordering is at stake, and that may be transitively
			// covered by other copies.
			Essential: consumed && (pr.Src != pr.Dst || cp.Reduce != region.ReduceNone),
		})
	}
	return out
}

func (a *Analysis) barrierMutations(cp *cr.CopyOp, bi int) []Mutation {
	cross := false
	for _, pr := range cp.Pairs {
		if pr.Src != pr.Dst {
			cross = true
			break
		}
	}
	return []Mutation{{
		Name: fmt.Sprintf("barrier(copy %d)", cp.ID),
		Copy: cp.ID,
		Pair: -1,
		Dst:  cp.Dst.Name(),
		Drop: []EdgeID{
			{Class: EdgeBarrier, Copy: cp.ID, Pair: 0},
			{Class: EdgeBarrier, Copy: cp.ID, Pair: 1},
		},
		Essential: a.laterConsumer(cp, bi) && (cross || cp.Reduce != region.ReduceNone),
	}}
}

// chainMutations deletes single reduction-chain edges, of those the
// schedule has (chains; under aggregation a link between two members of one
// message is the merged body's write order, structure with no sync to
// forget). The chain orders consecutive fold applications to one
// destination; deleting it races two writers exactly when their element
// sets intersect, so only intersecting consecutive pairs yield essential
// mutations.
func chainMutations(cp *cr.CopyOp, chains map[EdgeID]bool) []Mutation {
	if cp.Reduce == region.ReduceNone {
		return nil
	}
	var out []Mutation
	for _, gr := range groups(cp) {
		for k := gr[0] + 1; k < gr[1]; k++ {
			if !chains[EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k}] || !cp.Pairs[k-1].Overlap.Overlaps(cp.Pairs[k].Overlap) {
				continue
			}
			out = append(out, Mutation{
				Name:      fmt.Sprintf("chain(copy %d, pair %d)", cp.ID, k),
				Copy:      cp.ID,
				Pair:      k,
				Dst:       cp.Dst.Name(),
				Drop:      []EdgeID{{Class: EdgeChain, Copy: cp.ID, Pair: k}},
				Essential: true,
			})
		}
	}
	return out
}

// InvolvesCopy reports whether the finding's witness touches the given
// copy op — the attribution check the mutation harness runs on every
// finding a mutated program produces.
func (f Finding) InvolvesCopy(id int) bool {
	return f.A.Copy == id || f.B.Copy == id
}

// / Covers reports whether the finding is attributable to the mutation:
// either side of the witness is the mutated copy, or the racing instance
// belongs to the mutated copy's destination partition. The latter catches
// collateral races: the copy's consumer-side update clears the destination
// instance's reader list on the assumption that the deleted sync now
// orders those readers against later writers, so deleting it can expose a
// pure task-to-task race on the destination.
func (m Mutation) Covers(f Finding) bool {
	return f.InvolvesCopy(m.Copy) || strings.HasPrefix(f.Instance, m.Dst+"[")
}
