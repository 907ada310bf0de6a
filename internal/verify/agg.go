package verify

// Aggregation certification: the license for -agg, exactly as PlanPrune is
// the license for -prune. Coalescing rewrites the exchange schedule — one
// merged message per (producing shard, destination shard) group per
// exchange phase instead of one message per pair — so the compiled
// exchanges (cr.Compiled.Exchanges) are certified two ways:
//
//  1. Structurally: CheckAggTables recomputes the phase boundaries (the
//     conflict cut) and every shard's step list (the destination binning
//     and the fold-chain split) from the pair lists and the ownership map
//     alone, and diffs them against the compiler's. Member
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
// exchanges (corruptions in the tests), merged preconditions through the one
// Mutation model: labeled edge deletion (Mutations, whose point-to-point
// unit is a whole group's sync) and wait-for rewiring (LivenessMutations) —
// and demands 100% detection.

import (
	"fmt"
	"strings"

	"repro/internal/cr"
)

// CheckAggTables validates an aggregated plan's compiled exchanges
// (cr.Compiled.Exchanges) against recomputeExchanges, which rebuilds them
// from the pair lists and the ownership map (c.ShardOf) alone, by a walk of
// its own rather than the compiler's buildExchange, so a corruption of the
// compiled table diverges. Recomputed from first principles:
//
//   - phase boundaries: maximal runs of consecutive copy ops whose source
//     and destination partitions are pairwise disjoint (the conflict cut:
//     dst/dst, src-reads-earlier-dst, dst-overwrites-earlier-src all end
//     the run), each headed by its first op;
//   - group binning: each shard's produced pairs walked in issue order
//     (phase ops in body order, pairs in order), binned by the destination
//     color's owning shard;
//   - the fold-chain split: a reduce member whose chain predecessor is
//     produced by another shard starts a new group, keeping every merged
//     message's chain run contiguous and the message-level wait graph
//     acyclic;
//   - member order: exactly the unaggregated issue order, the contract
//     that makes the merged body's in-order writes bitwise-equal.
func CheckAggTables(c *cr.Compiled) error {
	if c == nil {
		return errNilLoop
	}
	var errs []string
	diffExchanges(c, recomputeExchanges(c), func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	})
	if len(errs) > 0 {
		return fmt.Errorf("verify: aggregation tables diverge from recomputation (%d findings):\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

// phaseEnd recomputes the alias cut: the end of the exchange phase that
// starts at the copy op at body index i, the first copy op (or non-copy op)
// whose partitions meet an earlier phase op's by the conflict cut.
func phaseEnd(c *cr.Compiled, i int) int {
	j := i
	for ; j < len(c.Body) && c.Body[j].Copy != nil; j++ {
		b := c.Body[j].Copy
		for _, e := range c.Body[i:j] {
			if a := e.Copy; b.Dst.ID() == a.Dst.ID() || b.Src.ID() == a.Dst.ID() || b.Dst.ID() == a.Src.ID() {
				return j
			}
		}
	}
	return j
}

// CheckAgg certifies one compiled loop's aggregation: the table
// recomputation, then liveness and the race check over the happens-before
// graph of the aggregated schedule. A corrupted grouping can deadlock the
// merged schedule; no order is defined on a cyclic graph, so the race pass
// then has nothing to add to the liveness pass's cycle witness.
func CheckAgg(c *cr.Compiled) (*Report, error) {
	if c == nil {
		return nil, errNilLoop
	}
	rep := aggTables(c)
	p, err := planOf(c)
	if err != nil {
		if len(rep.Findings) > 0 && exchangesWellFormed(c) != nil {
			return rep, nil // tables too malformed to replay: the structural findings stand
		}
		return nil, err
	}
	races, live := p.verdicts(p.base)
	return aggVerdicts(rep, c, races, live), nil
}

// aggTables is the table half of the agg report: CheckAggTables' findings.
func aggTables(c *cr.Compiled) *Report {
	rep := &Report{Pass: "agg", Findings: []Finding{}}
	if err := CheckAggTables(c); err != nil {
		rep.Findings = append(rep.Findings, Finding{Kind: "agg-table", Detail: err.Error()})
	}
	return rep
}

// aggVerdicts is the verdict half: the aggregated schedule's liveness and
// races findings (a cycle once), its stats and the shape counters.
func aggVerdicts(rep *Report, c *cr.Compiled, races, live *Report) *Report {
	rep.Stats = races.Stats
	rep.Findings = append(rep.Findings, live.Findings...)
	for _, f := range races.Findings {
		if f.Kind != "cycle" {
			rep.Findings = append(rep.Findings, f)
		}
	}
	rep.Counters = aggCounters(c)
	return rep
}

// aggCounters tallies the static shape of the aggregation: phases, groups
// that actually merge (two or more members), and the per-iteration message
// reduction they license (members beyond the first of every multi-member
// group — the DES's AggSavedMessages counts only the remote subset of
// these, since local groups never crossed the wire to begin with).
func aggCounters(c *cr.Compiled) map[string]int64 {
	var phases, grps, multi, merged int64
	for i, x := range c.Exchanges {
		if x.End == i {
			continue
		}
		phases++
		for _, steps := range x.Steps {
			for _, st := range steps {
				if !st.Produce {
					continue
				}
				grps++
				if len(st.Members) > 1 {
					multi++
					merged += int64(len(st.Members) - 1)
				}
			}
		}
	}
	return map[string]int64{
		"phases":              phases,
		"agg_groups":          grps,
		"multi_member_groups": multi,
		"merged_pairs":        merged,
	}
}
