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
//  2. Dynamically (but statically checked): AnalyzeAgg rebuilds the
//     happens-before graph of the AGGREGATED schedule — a symbolic replay
//     of spmd.execPhaseP2P / execPhaseBarrier, mirroring them op for op
//     the way graph.go mirrors the unaggregated executor — and the race
//     and liveness passes re-run over it. A merged message is modeled as
//     a linear cluster of per-member copy nodes m_1 -> ... -> m_n: the
//     chain encodes the merged body's in-order member writes, every
//     precondition (member wars, source validity, external fold-chain
//     links, phase barriers) enters the head, and the single completion
//     is the tail (all member done events trigger together when the
//     message completes). Per-member nodes keep conflict orientation,
//     witnesses, and mutation attribution exact, while the cluster shape
//     keeps the merged message's atomicity: nothing transfers before all
//     preconditions, everything completes together.
//
// The mutation harness corrupts both layers — group membership through the
// tables (AggTableMutations-style corruption in the tests), merged
// preconditions through labeled edge deletion (AggMutations) and wait-for
// rewiring (the shared LivenessMutations) — and demands 100% detection.

import (
	"fmt"
	"strings"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/region"
)

// AnalyzeAgg builds the conflict set and happens-before graph of the
// aggregated schedule — the schedule the executor runs under -agg.
// Aggregation does not compose with certified sync pruning (the engine
// rejects the combination), so a plan carrying prune info is refused here
// too rather than certified against the wrong schedule.
func AnalyzeAgg(c *cr.Compiled) (*Analysis, error) {
	if c == nil {
		return nil, fmt.Errorf("verify: nil compiled loop")
	}
	if c.Prune != nil {
		return nil, fmt.Errorf("verify: copy aggregation does not compose with certified sync pruning; certify one rewrite at a time")
	}
	if err := aggTablesWellFormed(c); err != nil {
		return nil, err
	}
	b := newBuilder(c)
	b.agg = true
	return b.analyze(), nil
}

// aggTablesWellFormed bounds-checks the aggregation tables so the symbolic
// replay cannot index out of range on corrupted input. Semantic divergence
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
		for s := range ph.ByShard {
			for gi := range ph.ByShard[s] {
				for _, mem := range ph.ByShard[s][gi].Members {
					if int(mem.Op) < 0 || int(mem.Op) >= len(c.Body) || c.Body[mem.Op].Copy == nil {
						return fmt.Errorf("verify: phase %d shard %d group %d member names body op %d, not a copy", pi, s, gi, mem.Op)
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

// doPhaseP2PAgg symbolically replays spmd.(*shard).execPhaseP2P: the
// consumer side of every phase op runs first, op by op in body order, with
// the unaggregated per-pair war/done structure intact (consumers are
// oblivious to producer batching); then each aggregation group issues one
// merged message — a member-node cluster gated on every member's war,
// source validity, and external fold-chain link, whose tail triggers every
// member's done.
func (b *builder) doPhaseP2PAgg(phIdx int, iter int32, seed func(*symState)) {
	g, c := b.g, b.c
	ph := &c.Spec.Phases[phIdx]

	warN := make(map[cr.AggPair]nodeID)
	doneN := make(map[cr.AggPair]nodeID)
	for opIdx := ph.Start; opIdx < ph.End; opIdx++ {
		cp := c.Body[opIdx].Copy
		for _, gr := range groups(cp) {
			start, end := gr[0], gr[1]
			dstCol := cp.Pairs[start].Dst
			consShard := b.shardOf(dstCol)
			s := b.state(instRef{part: cp.Dst, color: dstCol})
			seed(s)
			release := append(append([]nodeID(nil), s.readers...), s.lastWrite...)
			newWrites := append([]nodeID(nil), s.lastWrite...)
			for k := start; k < end; k++ {
				w := g.add(node{kind: kWar, iter: iter, body: int32(opIdx), sub: int32(k), copyID: int32(cp.ID), color: dstCol, shard: consShard})
				for _, r := range release {
					g.ledge(r, w, EdgeID{Class: EdgeWAR, Copy: cp.ID, Pair: k})
				}
				warN[cr.AggPair{Op: int32(opIdx), Pair: int32(k)}] = w
				d := g.add(node{kind: kDone, iter: iter, body: int32(opIdx), sub: int32(k), copyID: int32(cp.ID), color: dstCol, shard: consShard})
				doneN[cr.AggPair{Op: int32(opIdx), Pair: int32(k)}] = d
				newWrites = append(newWrites, d)
				b.opsOf[consShard] = append(b.opsOf[consShard], d)
			}
			s.lastWrite = newWrites
			s.readers = s.readers[:0]
		}
	}

	for sh := range ph.ByShard {
		for gi := range ph.ByShard[sh] {
			grp := &ph.ByShard[sh][gi]
			head, tail := b.aggCluster(grp, int32(sh), iter)
			if head < 0 {
				continue
			}
			for _, mem := range grp.Members {
				cp := c.Body[mem.Op].Copy
				k := int(mem.Pair)
				if w, ok := warN[mem]; ok {
					g.edge(w, head)
				}
				b.aggSrcPre(cp, k, head, tail, seed)
				if cp.Reduce != region.ReduceNone && cr.AggChainExternal(cp, c.Spec.Ops[mem.Op].Copy, k) {
					if d, ok := doneN[cr.AggPair{Op: mem.Op, Pair: mem.Pair - 1}]; ok {
						g.ledge(d, head, EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
					}
				}
			}
			// Completion fan-out: the whole message completes at once, so
			// every member's done fires off the tail.
			for _, mem := range grp.Members {
				cp := c.Body[mem.Op].Copy
				if d, ok := doneN[mem]; ok {
					g.ledge(tail, d, EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: int(mem.Pair)})
					b.opsOf[sh] = append(b.opsOf[sh], d)
				}
			}
		}
	}
}

// doPhaseBarrierAgg symbolically replays spmd.(*shard).execPhaseBarrier:
// every phase op's first barrier collects arrivals up front (without
// threading one op's exit barrier into the next op's entry), the merged
// messages wait ALL the phase's first barriers plus source validity and
// external chains, and every op's second barrier waits the whole phase's
// merged completions — over-synchronized relative to the unaggregated
// lowering, but only ever tighter. Reduce members still trigger their
// per-pair done events, the carrier of cross-shard fold order.
func (b *builder) doPhaseBarrierAgg(phIdx int, iter int32, seed func(*symState)) {
	g, c := b.g, b.c
	ph := &c.Spec.Phases[phIdx]
	ns := c.Opts.NumShards

	b1s := make([]nodeID, 0, ph.End-ph.Start)
	for opIdx := ph.Start; opIdx < ph.End; opIdx++ {
		cp := c.Body[opIdx].Copy
		b1 := g.add(node{kind: kBarrier, iter: iter, body: int32(opIdx), sub: 0, copyID: int32(cp.ID), shard: -1})
		g.arrivals = append(g.arrivals, barrierArrival{b: b1, copyID: int32(cp.ID), iter: iter, phase: 0, got: ns, want: ns})
		arrive1 := EdgeID{Class: EdgeBarrier, Copy: cp.ID, Pair: 0}
		for _, ops := range b.opsOf {
			for _, n := range ops {
				g.ledge(n, b1, arrive1)
			}
		}
		for _, gr := range groups(cp) {
			dstCol := cp.Pairs[gr[0]].Dst
			s := b.state(instRef{part: cp.Dst, color: dstCol})
			seed(s)
			for _, n := range s.lastWrite {
				g.ledge(n, b1, arrive1)
			}
			for _, n := range s.readers {
				g.ledge(n, b1, arrive1)
			}
		}
		b1s = append(b1s, b1)
	}

	// Per-pair done events exist for every reduce pair (the sync slots the
	// executor allocates); only members the tables name get triggers, so a
	// dropped member surfaces as a never-triggered event, not silence.
	doneN := make(map[cr.AggPair]nodeID)
	for opIdx := ph.Start; opIdx < ph.End; opIdx++ {
		cp := c.Body[opIdx].Copy
		if cp.Reduce == region.ReduceNone {
			continue
		}
		for k, pr := range cp.Pairs {
			d := g.add(node{kind: kDone, iter: iter, body: int32(opIdx), sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: b.shardOf(pr.Src)})
			doneN[cr.AggPair{Op: int32(opIdx), Pair: int32(k)}] = d
		}
	}

	var copyEvs []nodeID
	for sh := range ph.ByShard {
		for gi := range ph.ByShard[sh] {
			grp := &ph.ByShard[sh][gi]
			head, tail := b.aggCluster(grp, int32(sh), iter)
			if head < 0 {
				continue
			}
			for _, b1 := range b1s {
				g.edge(b1, head)
			}
			for _, mem := range grp.Members {
				cp := c.Body[mem.Op].Copy
				k := int(mem.Pair)
				b.aggSrcPre(cp, k, head, tail, seed)
				if cp.Reduce == region.ReduceNone {
					continue
				}
				if cr.AggChainExternal(cp, c.Spec.Ops[mem.Op].Copy, k) {
					if d, ok := doneN[cr.AggPair{Op: mem.Op, Pair: mem.Pair - 1}]; ok {
						g.ledge(d, head, EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
					}
				}
				if d, ok := doneN[mem]; ok {
					g.ledge(tail, d, EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: k})
				}
			}
			copyEvs = append(copyEvs, tail)
		}
	}

	for oi, opIdx := 0, ph.Start; opIdx < ph.End; oi, opIdx = oi+1, opIdx+1 {
		cp := c.Body[opIdx].Copy
		b2 := g.add(node{kind: kBarrier, iter: iter, body: int32(opIdx), sub: 1, copyID: int32(cp.ID), shard: -1})
		g.arrivals = append(g.arrivals, barrierArrival{b: b2, copyID: int32(cp.ID), iter: iter, phase: 1, got: ns, want: ns})
		arrive2 := EdgeID{Class: EdgeBarrier, Copy: cp.ID, Pair: 1}
		for _, ev := range copyEvs {
			g.ledge(ev, b2, arrive2)
		}
		g.ledge(b1s[oi], b2, arrive2)
		for _, gr := range groups(cp) {
			dstCol := cp.Pairs[gr[0]].Dst
			s := b.state(instRef{part: cp.Dst, color: dstCol})
			s.lastWrite = append(s.lastWrite, b2)
			s.readers = s.readers[:0]
		}
		for sh := range b.opsOf {
			b.opsOf[sh] = append(b.opsOf[sh], b2)
		}
	}
}

// aggCluster adds one merged message as a linear cluster of per-member
// copy nodes: m_1 -> ... -> m_n in capture order (the merged body's write
// order), each recording its own source read and destination write. The
// head receives the group's merged preconditions (wired by the caller per
// lowering), the tail is the message completion. Returns (-1, -1) for an
// empty group.
func (b *builder) aggCluster(grp *cr.AggGroup, prodShard, iter int32) (head, tail nodeID) {
	g, c := b.g, b.c
	head, tail = -1, -1
	for _, mem := range grp.Members {
		cp := c.Body[mem.Op].Copy
		pr := cp.Pairs[mem.Pair]
		mn := g.add(node{kind: kCopy, iter: iter, body: mem.Op, sub: mem.Pair, copyID: int32(cp.ID), color: pr.Dst, shard: prodShard})
		if tail >= 0 {
			g.edge(tail, mn)
		} else {
			head = mn
		}
		tail = mn
		if cp.Reduce == region.ReduceNone {
			b.record(mn, instRef{part: cp.Src, color: pr.Src}, cp.Fields, pr.Overlap, false)
		} else {
			b.record(mn, instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src}, cp.Fields, pr.Overlap, false)
		}
		b.record(mn, instRef{part: cp.Dst, color: pr.Dst}, cp.Fields, pr.Overlap, true)
	}
	return head, tail
}

// aggSrcPre wires one member's source-validity precondition into the
// cluster head and registers the message completion (the tail) as a reader
// of the source instance, mirroring the executor's
// `pres += srcState.lastWrite; srcState.readers += ev`.
func (b *builder) aggSrcPre(cp *cr.CopyOp, k int, head, tail nodeID, seed func(*symState)) {
	pr := cp.Pairs[k]
	var s *symState
	if cp.Reduce == region.ReduceNone {
		s = b.state(instRef{part: cp.Src, color: pr.Src})
	} else {
		s = b.state(instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src})
	}
	seed(s)
	b.edgesFrom(s.lastWrite, head)
	s.readers = append(s.readers, tail)
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
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].DstShard != b[i].DstShard || len(a[i].Members) != len(b[i].Members) {
			return false
		}
		for m := range a[i].Members {
			if a[i].Members[m] != b[i].Members[m] {
				return false
			}
		}
	}
	return true
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
// recomputation, then liveness and the race check over the rebuilt
// aggregated happens-before graph. Liveness runs first — a corrupted
// grouping can deadlock the merged schedule, and the race pass's
// reachability closure requires an acyclic graph — and the race pass is
// skipped (its absence is not a pass) when a wait cycle is found.
func CheckAgg(c *cr.Compiled) (*Report, error) {
	rep := &Report{Pass: "agg", Findings: []Finding{}}
	if err := CheckAggTables(c); err != nil {
		rep.Findings = append(rep.Findings, Finding{Kind: "agg-table", Detail: err.Error()})
	}
	a, err := AnalyzeAgg(c)
	if err != nil {
		if len(rep.Findings) > 0 {
			// Tables too malformed to replay: the structural findings stand.
			return rep, nil
		}
		return nil, err
	}
	live := a.CheckLiveness()
	rep.Findings = append(rep.Findings, live.Findings...)
	cyclic := false
	for _, f := range live.Findings {
		if f.Kind == "cycle" {
			cyclic = true
		}
	}
	if cyclic {
		rep.Stats = live.Stats
	} else {
		races := a.Check()
		rep.Stats = races.Stats
		rep.Findings = append(rep.Findings, races.Findings...)
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

// CheckAggAll certifies every compiled loop of a plan map, merging the
// reports in program order (the VerifyAll pattern).
func CheckAggAll(prog *ir.Program, plans map[*ir.Loop]*cr.Compiled) (*Report, error) {
	merged := &Report{Pass: "agg", Findings: []Finding{}, Counters: map[string]int64{}}
	for _, s := range prog.Stmts {
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		plan, ok := plans[loop]
		if !ok {
			continue
		}
		rep, err := CheckAgg(plan)
		if err != nil {
			return nil, err
		}
		merged.Stats.Nodes += rep.Stats.Nodes
		merged.Stats.Edges += rep.Stats.Edges
		merged.Stats.Instances += rep.Stats.Instances
		merged.Stats.Accesses += rep.Stats.Accesses
		merged.Stats.Conflicts += rep.Stats.Conflicts
		merged.Stats.CrossShard += rep.Stats.CrossShard
		merged.Stats.Iters += rep.Stats.Iters
		merged.Findings = append(merged.Findings, rep.Findings...)
		for k, v := range rep.Counters {
			merged.Counters[k] += v
		}
	}
	return merged, nil
}

// AggMutation is one simulated aggregation bug in the merged
// preconditions: a set of labeled synchronization edges deleted together
// from the aggregated happens-before graph. Unlike the per-pair Mutation,
// the deletion unit is the whole group's synchronization — within a group
// the per-member sync is partially redundant BY DESIGN (the merged message
// waits the union of member preconditions, so a forgotten member war is
// genuinely covered whenever another member of the same group gates the
// same instance), and only the group-level deletion is guaranteed to strip
// every route.
type AggMutation struct {
	// Name describes the mutation, e.g. "agg-group-sync(phase 0, shard 1,
	// group 2)".
	Name string `json:"name"`
	// Copies are the member copy ops' IDs and Dsts their destination
	// partitions; a finding is attributed to the mutation when it involves
	// any of them (see Covers).
	Copies []int    `json:"copies"`
	Dsts   []string `json:"dsts"`
	// Drop is the edge set handed to Check.
	Drop []EdgeID `json:"drop"`
	// Essential mutations must be detected: the group has a consumed
	// cross-color or reduction member, so no local dependence chain can
	// stand in for the deleted synchronization.
	Essential bool `json:"essential"`
}

// Covers reports whether the finding is attributable to the mutation: a
// witness op of a member copy, or a racing instance of a member's
// destination partition (the collateral-race attribution of
// Mutation.Covers, widened to the group's member set).
func (m AggMutation) Covers(f Finding) bool {
	for _, id := range m.Copies {
		if f.InvolvesCopy(id) {
			return true
		}
	}
	for _, d := range m.Dsts {
		if strings.HasPrefix(f.Instance, d+"[") {
			return true
		}
	}
	return false
}

// AggMutations enumerates the merged-precondition deletions for the
// analyzed aggregated schedule. Under point-to-point sync each aggregation
// group contributes one whole-group sync deletion (every member's war,
// done, and chain edges together — the compiler forgot to wire the merged
// message at all); under barriers each phase op contributes the deletion
// of both its barriers (merged messages wait every phase barrier, so
// dropping one op's pair unprotects exactly that op's destinations).
// Both lowerings additionally contribute chain-only deletions for the
// EXTERNAL fold-chain links — the only chain synchronization that still
// exists under aggregation; internal links are the merged body's in-order
// writes, structure with no sync to forget.
func (a *Analysis) AggMutations() []AggMutation {
	var out []AggMutation
	c := a.c
	spec := &c.Spec
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		if c.Opts.Sync == cr.BarrierSync {
			for opIdx := ph.Start; opIdx < ph.End; opIdx++ {
				cp := c.Body[opIdx].Copy
				for _, m := range a.barrierMutations(cp, opIdx) {
					out = append(out, AggMutation{
						Name:      "agg-" + m.Name,
						Copies:    []int{m.Copy},
						Dsts:      []string{m.Dst},
						Drop:      m.Drop,
						Essential: m.Essential,
					})
				}
			}
		} else {
			for s := range ph.ByShard {
				for gi := range ph.ByShard[s] {
					grp := &ph.ByShard[s][gi]
					var drop []EdgeID
					var copies []int
					var dsts []string
					consumed, crossOrReduce := false, false
					for _, mem := range grp.Members {
						cp := c.Body[mem.Op].Copy
						k := int(mem.Pair)
						drop = append(drop,
							EdgeID{Class: EdgeWAR, Copy: cp.ID, Pair: k},
							EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: k},
							EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
						copies = appendUniqueInt(copies, cp.ID)
						dsts = appendUniqueStr(dsts, cp.Dst.Name())
						if a.laterConsumer(cp, int(mem.Op)) {
							consumed = true
						}
						if cp.Pairs[k].Src != cp.Pairs[k].Dst || cp.Reduce != region.ReduceNone {
							crossOrReduce = true
						}
					}
					out = append(out, AggMutation{
						Name:      fmt.Sprintf("agg-group-sync(phase %d, shard %d, group %d)", pi, s, gi),
						Copies:    copies,
						Dsts:      dsts,
						Drop:      drop,
						Essential: consumed && crossOrReduce,
					})
				}
			}
		}
		for opIdx := ph.Start; opIdx < ph.End; opIdx++ {
			cp := c.Body[opIdx].Copy
			if cp.Reduce == region.ReduceNone {
				continue
			}
			cs := spec.Ops[opIdx].Copy
			for _, gr := range groups(cp) {
				for k := gr[0] + 1; k < gr[1]; k++ {
					if !cr.AggChainExternal(cp, cs, k) {
						continue
					}
					if !cp.Pairs[k-1].Overlap.Overlaps(cp.Pairs[k].Overlap) {
						continue
					}
					out = append(out, AggMutation{
						Name:      fmt.Sprintf("agg-chain(copy %d, pair %d)", cp.ID, k),
						Copies:    []int{cp.ID},
						Dsts:      []string{cp.Dst.Name()},
						Drop:      []EdgeID{{Class: EdgeChain, Copy: cp.ID, Pair: k}},
						Essential: true,
					})
				}
			}
		}
	}
	return out
}

func appendUniqueInt(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

func appendUniqueStr(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}
