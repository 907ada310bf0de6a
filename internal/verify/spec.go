package verify

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cr"
	"repro/internal/region"
)

// CheckSpec statically validates the compiled plan's shard-independent
// tables against an independent recomputation from the compiled loop's
// pair lists and ownership. spmd.(*runState).resolve binds each shard's
// colors by ColorIdx and walks its compiled exchange step lists
// (cr.Compiled.Exchanges), so each is re-derived here from first
// principles and compared:
//
//   - block congruence: every owned color's ColorIdx equals its dense slot
//     in the ownership partition's running block offset (so every shard
//     binds the collective indices a direct capture would);
//   - without Options.Agg, every shard's exchange step lists equal
//     recomputeExchanges' (same consumer per group, same produced pairs
//     toward the same shards, in the same order) — the lists spmd's one
//     resolver walks, memoized or re-resolved every iteration, shared
//     capture or not. An aggregated plan's lists are CheckAggTables'.
//
// Kernel costs and transfer sizes are not tables: the executor reads them
// from the geometry (the cost argument's subregion, each pair's overlap).
// A nil return means every resolved plan is structurally identical to one
// derived from the geometry directly, and therefore issues the same
// synchronization.
func CheckSpec(c *cr.Compiled) error {
	if c == nil {
		return errNilLoop
	}
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	ns := c.Opts.NumShards

	base := 0
	for s := 0; s < ns; s++ {
		for k, col := range c.Owned[s] {
			if c.ColorIdx[col] != base+k {
				fail("shard %d owned color %v has ColorIdx %d, want dense slot %d: owned blocks are not contiguous in the domain", s, col, c.ColorIdx[col], base+k)
			}
		}
		base += len(c.Owned[s])
	}

	if !c.Opts.Agg {
		diffExchanges(c, recomputeExchanges(c), fail)
	}

	if len(errs) > 0 {
		return fmt.Errorf("verify: specialization tables diverge from recomputation (%d findings):\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

// recomputeExchanges rebuilds every body op's exchange (cr.Exchange) from
// the pair lists, c.ShardOf and the alias cut (phaseEnd) alone, by a walk
// of its own, so a corruption of the compiled table diverges.
// CheckAggTables lists the rules.
func recomputeExchanges(c *cr.Compiled) []cr.Exchange {
	ns, agg := c.Opts.NumShards, c.Opts.Agg
	out := make([]cr.Exchange, len(c.Body))
	for i := range out {
		out[i].End = i
	}
	for i := 0; i < len(c.Body); i++ {
		if c.Body[i].Copy == nil {
			continue
		}
		end := i + 1
		if agg {
			end = phaseEnd(c, i)
		}
		lists, xfers := make([][]cr.ExchangeStep, ns), make([][]cr.ExchangeStep, ns)
		open := map[[2]int]int{}
		for op := i; op < end; op++ {
			cp := c.Body[op].Copy
			for _, g := range groups(cp) {
				d := c.ShardOf[cp.Pairs[g[0]].Dst]
				lists[d] = append(lists[d], cr.ExchangeStep{Op: int32(op), GroupStart: int32(g[0]), GroupEnd: int32(g[1])})
				for k := g[0]; k < g[1]; k++ {
					src := c.ShardOf[cp.Pairs[k].Src]
					chain := cp.Reduce != region.ReduceNone && k > g[0] && (!agg || c.ShardOf[cp.Pairs[k-1].Src] != src)
					m := cr.StepMember{AggPair: cr.AggPair{Op: int32(op), Pair: int32(k)}, Chain: chain}
					step := cr.ExchangeStep{Produce: true, DstShard: int32(d), Members: []cr.StepMember{m}}
					gi, ok := open[[2]int{src, d}]
					switch {
					case !agg:
						lists[src] = append(lists[src], step)
					case ok && !chain:
						xfers[src][gi].Members = append(xfers[src][gi].Members, m)
					default:
						open[[2]int{src, d}], xfers[src] = len(xfers[src]), append(xfers[src], step)
					}
				}
			}
		}
		for s := range lists {
			lists[s] = append(lists[s], xfers[s]...)
		}
		out[i] = cr.Exchange{End: end, Steps: lists}
		i = end - 1
	}
	return out
}

// diffExchanges reports each compiled exchange that diverges from want: its
// span — whether the op heads an exchange at all, then where it ends — and
// then every shard's step list.
func diffExchanges(c *cr.Compiled, want []cr.Exchange, fail func(string, ...any)) {
	got := c.Exchanges
	if len(got) != len(want) {
		fail("%d exchanges, want one per body op (%d)", len(got), len(want))
		return
	}
	list := "work list"
	if c.Opts.Agg {
		list = "group membership (destination binding, fold-chain split, or member order)"
	}
	for i := range want {
		g, w := &got[i], &want[i]
		switch {
		case g.End != w.End && (g.End == i || w.End == i):
			fail("op %d heads an exchange spanning [%d,%d), want [%d,%d): phase assignment diverges from recomputation", i, i, g.End, i, w.End)
			continue
		case g.End != w.End:
			fail("exchange at op %d spans [%d,%d), want [%d,%d): phase boundary diverges — merging across the conflict cut deadlocks the merged message against its own synchronization", i, i, g.End, i, w.End)
			continue
		case w.End == i:
			continue
		case len(g.Steps) != len(w.Steps):
			fail("exchange at op %d has step lists for %d shards, want %d", i, len(g.Steps), len(w.Steps))
			continue
		}
		for s := range w.Steps {
			if !slices.EqualFunc(g.Steps[s], w.Steps[s], stepsEqual) {
				fail("exchange at op %d shard %d %s diverges from recomputation:\n    got  %+v\n    want %+v", i, s, list, g.Steps[s], w.Steps[s])
			}
		}
	}
}

func stepsEqual(a, b cr.ExchangeStep) bool {
	return a.Produce == b.Produce && a.Op == b.Op && a.GroupStart == b.GroupStart && a.GroupEnd == b.GroupEnd &&
		a.DstShard == b.DstShard && slices.Equal(a.Members, b.Members)
}

// groups returns the contiguous same-destination runs of a copy's pairs —
// the consumer groups of the executor's copy schedule.
func groups(cp *cr.CopyOp) [][2]int {
	var out [][2]int
	i := 0
	for i < len(cp.Pairs) {
		j := i
		for j < len(cp.Pairs) && cp.Pairs[j].Dst == cp.Pairs[i].Dst {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}
