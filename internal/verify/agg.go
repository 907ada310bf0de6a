package verify

// Aggregation certification: the license for -agg, exactly as PlanPrune is
// the license for -prune. Coalescing rewrites the exchange schedule — one
// merged message per (producing shard, destination shard) group per
// exchange phase instead of one message per pair — so the compiled
// aggregation tables (cr.SpecTable.Phases/PhaseOf) are certified two ways:
//
//  1. Structurally: CheckAggTables recomputes the phase boundaries (the
//     conflict cut) and every shard's group tables (the destination
//     binning and the fold-chain split) from the pair lists and the
//     ownership map alone, and diffs them against the compiler's. Member
//     ORDER is part of the contract — the merged body runs member writes
//     in slice order to stay bitwise-equal with the unaggregated run — so
//     any permutation, drop, duplication, or rebinding diverges.
//
//  2. On the schedule that runs: Analyze builds happens-before from the
//     exchange step lists the executor runs (graph.go), so with Options.Agg
//     the graph is the AGGREGATED schedule's — every merged message a
//     cluster of per-member copy nodes whose preconditions (member wars,
//     source validity, external fold-chain links, phase barriers) enter
//     the head and whose single completion is the tail — and the race and
//     liveness passes run over it.
//
// The mutation harness corrupts both layers — group membership through the
// tables (corruptions in the tests), merged preconditions through the one
// Mutation model: labeled edge deletion (Mutations, whose point-to-point
// unit is a whole group's sync) and wait-for rewiring (LivenessMutations) —
// and demands 100% detection.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cr"
	"repro/internal/region"
)

// aggTablesWellFormed bounds-checks the aggregation tables so the replay of
// an aggregated plan cannot index out of range on corrupted input. Semantic divergence
// is CheckAggTables' job; this only guards the replay itself.
func aggTablesWellFormed(c *cr.Compiled) error {
	spec := &c.Spec
	if len(spec.PhaseOf) != len(c.Body) {
		return fmt.Errorf("verify: PhaseOf has %d entries for a %d-op body", len(spec.PhaseOf), len(c.Body))
	}
	for i, pi := range spec.PhaseOf {
		if pi >= len(spec.Phases) {
			return fmt.Errorf("verify: PhaseOf[%d] = %d outside the %d phases", i, pi, len(spec.Phases))
		}
	}
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		if ph.Start < 0 || ph.End > len(c.Body) || ph.Start >= ph.End {
			return fmt.Errorf("verify: phase %d spans [%d,%d) outside the %d-op body", pi, ph.Start, ph.End, len(c.Body))
		}
		for op := ph.Start; op < ph.End; op++ {
			if c.Body[op].Copy == nil {
				return fmt.Errorf("verify: phase %d spans body op %d, not a copy", pi, op)
			}
		}
		for s := range ph.ByShard {
			for gi := range ph.ByShard[s] {
				for _, mem := range ph.ByShard[s][gi].Members {
					if int(mem.Op) < ph.Start || int(mem.Op) >= ph.End {
						return fmt.Errorf("verify: phase %d shard %d group %d member names body op %d outside the phase", pi, s, gi, mem.Op)
					}
					if cp := c.Body[mem.Op].Copy; int(mem.Pair) < 0 || int(mem.Pair) >= len(cp.Pairs) {
						return fmt.Errorf("verify: phase %d shard %d group %d member pair %d outside copy %d's %d pairs", pi, s, gi, mem.Pair, cp.ID, len(cp.Pairs))
					}
				}
			}
		}
	}
	return nil
}

// CheckAggTables validates the compiler's aggregation tables against an
// independent recomputation from the pair lists and the ownership map
// (c.ShardOf) — deliberately NOT from the CopySpec work lists the compiler
// itself binned from, so a corruption of either layer diverges. Recomputed
// from first principles:
//
//   - phase boundaries: maximal runs of consecutive copy ops whose source
//     and destination partitions are pairwise disjoint (the conflict cut:
//     dst/dst, src-reads-earlier-dst, dst-overwrites-earlier-src all end
//     the run), with PhaseOf consistent;
//   - group binning: each shard's produced pairs walked in issue order
//     (phase ops in body order, destination runs in pair order, producer
//     pairs ascending), binned by the destination color's owning shard;
//   - the fold-chain split: a reduce member whose chain predecessor is
//     produced by another shard starts a new group, keeping every merged
//     message's chain run contiguous and the message-level wait graph
//     acyclic;
//   - member order: exactly the unaggregated issue order, the contract
//     that makes the merged body's in-order writes bitwise-equal.
func CheckAggTables(c *cr.Compiled) error {
	if c == nil {
		return fmt.Errorf("verify: nil compiled loop")
	}
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	spec := &c.Spec
	want, wantOf := recomputeAggPhases(c)

	if len(spec.PhaseOf) != len(c.Body) {
		fail("PhaseOf has %d entries, want one per body op (%d)", len(spec.PhaseOf), len(c.Body))
	} else {
		for i := range wantOf {
			if spec.PhaseOf[i] != wantOf[i] {
				fail("PhaseOf[%d] = %d, want %d: phase assignment diverges from recomputation", i, spec.PhaseOf[i], wantOf[i])
			}
		}
	}
	if len(spec.Phases) != len(want) {
		fail("%d phases, want %d: phase boundaries diverge from recomputation", len(spec.Phases), len(want))
	} else {
		for pi := range want {
			got, wph := &spec.Phases[pi], &want[pi]
			if got.Start != wph.Start || got.End != wph.End {
				fail("phase %d spans [%d,%d), want [%d,%d): phase boundary diverges — merging across the conflict cut deadlocks the merged message against its own synchronization", pi, got.Start, got.End, wph.Start, wph.End)
				continue
			}
			if len(got.ByShard) != len(wph.ByShard) {
				fail("phase %d has group tables for %d shards, want %d", pi, len(got.ByShard), len(wph.ByShard))
				continue
			}
			for s := range wph.ByShard {
				if !aggGroupsEqual(got.ByShard[s], wph.ByShard[s]) {
					fail("phase %d shard %d group membership diverges from recomputation (destination binding, fold-chain split, or member order):\n    got  %s\n    want %s",
						pi, s, fmtAggGroups(got.ByShard[s]), fmtAggGroups(wph.ByShard[s]))
				}
			}
		}
	}

	if len(errs) > 0 {
		return fmt.Errorf("verify: aggregation tables diverge from recomputation (%d findings):\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

// recomputeAggPhases rebuilds the exchange phases and group tables from
// the pair lists and c.ShardOf alone.
func recomputeAggPhases(c *cr.Compiled) ([]cr.AggPhase, []int) {
	ns := c.Opts.NumShards
	phaseOf := make([]int, len(c.Body))
	for i := range phaseOf {
		phaseOf[i] = -1
	}
	var phases []cr.AggPhase
	i := 0
	for i < len(c.Body) {
		if c.Body[i].Copy == nil {
			i++
			continue
		}
		j := i
		var srcs, dsts []region.PartitionID
		for j < len(c.Body) && c.Body[j].Copy != nil {
			cp := c.Body[j].Copy
			s, d := cp.Src.ID(), cp.Dst.ID()
			conflict := false
			for _, pd := range dsts {
				if d == pd || s == pd {
					conflict = true
				}
			}
			for _, ps := range srcs {
				if d == ps {
					conflict = true
				}
			}
			if conflict {
				break
			}
			srcs = append(srcs, s)
			dsts = append(dsts, d)
			j++
		}
		ph := cr.AggPhase{Start: i, End: j, ByShard: make([][]cr.AggGroup, ns)}
		for s := 0; s < ns; s++ {
			touched := map[int32]int{}
			for op := i; op < j; op++ {
				cp := c.Body[op].Copy
				reduce := cp.Reduce != region.ReduceNone
				for _, gr := range groups(cp) {
					for k := gr[0]; k < gr[1]; k++ {
						if c.ShardOf[cp.Pairs[k].Src] != s {
							continue
						}
						dst := int32(c.ShardOf[cp.Pairs[k].Dst])
						chainExt := k > 0 && cp.Pairs[k-1].Dst == cp.Pairs[k].Dst &&
							c.ShardOf[cp.Pairs[k-1].Src] != c.ShardOf[cp.Pairs[k].Src]
						gi, ok := touched[dst]
						if !ok || (reduce && chainExt) {
							ph.ByShard[s] = append(ph.ByShard[s], cr.AggGroup{DstShard: dst})
							gi = len(ph.ByShard[s]) - 1
							touched[dst] = gi
						}
						g := &ph.ByShard[s][gi]
						g.Members = append(g.Members, cr.AggPair{Op: int32(op), Pair: int32(k)})
					}
				}
			}
		}
		for op := i; op < j; op++ {
			phaseOf[op] = len(phases)
		}
		phases = append(phases, ph)
		i = j
	}
	return phases, phaseOf
}

func aggGroupsEqual(a, b []cr.AggGroup) bool {
	return slices.EqualFunc(a, b, func(x, y cr.AggGroup) bool {
		return x.DstShard == y.DstShard && slices.Equal(x.Members, y.Members)
	})
}

func fmtAggGroups(gs []cr.AggGroup) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, g := range gs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "->%d{", g.DstShard)
		for m, mem := range g.Members {
			if m > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d/%d", mem.Op, mem.Pair)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(']')
	return sb.String()
}

// CheckAgg certifies one compiled loop's aggregation: the table
// recomputation, then liveness and the race check over the happens-before
// graph of the aggregated schedule. A corrupted grouping can deadlock the
// merged schedule; no order is defined on a cyclic graph, so the race pass
// then has nothing to add to the liveness pass's cycle witness.
func CheckAgg(c *cr.Compiled) (*Report, error) {
	rep := &Report{Pass: "agg", Findings: []Finding{}}
	if err := CheckAggTables(c); err != nil {
		rep.Findings = append(rep.Findings, Finding{Kind: "agg-table", Detail: err.Error()})
	}
	a, err := Analyze(c)
	if err != nil {
		if len(rep.Findings) > 0 && aggTablesWellFormed(c) != nil {
			// Tables too malformed to replay: the structural findings stand.
			return rep, nil
		}
		return nil, err
	}
	races := a.Check()
	rep.Stats = races.Stats
	rep.Findings = append(rep.Findings, a.CheckLiveness().Findings...)
	for _, f := range races.Findings {
		if f.Kind != "cycle" {
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Counters = aggCounters(c)
	return rep, nil
}

// aggCounters tallies the static shape of the aggregation: phases, groups
// that actually merge (two or more members), and the per-iteration message
// reduction they license (members beyond the first of every multi-member
// group — the DES's AggSavedMessages counts only the remote subset of
// these, since local groups never crossed the wire to begin with).
func aggCounters(c *cr.Compiled) map[string]int64 {
	var grps, multi, merged int64
	for pi := range c.Spec.Phases {
		for _, gl := range c.Spec.Phases[pi].ByShard {
			for _, g := range gl {
				grps++
				if len(g.Members) > 1 {
					multi++
					merged += int64(len(g.Members) - 1)
				}
			}
		}
	}
	return map[string]int64{
		"phases":              int64(len(c.Spec.Phases)),
		"agg_groups":          grps,
		"multi_member_groups": multi,
		"merged_pairs":        merged,
	}
}
