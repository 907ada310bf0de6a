package verify

// Redundant-sync analysis and pruning: the second pass of the schedule
// certifier. Control replication inserts synchronization conservatively;
// any sync edge implied by the rest of the happens-before relation is pure
// overhead (on the wire for point-to-point pairs, in trigger fan-out for
// the native backend). This pass computes which inserted edges are
// transitively redundant — the transitive-reduction question asked per
// deletable edge — plus which initialization populations are dead (every
// read of the instance is covered by later compiler-inserted overwrites),
// and emits a cr.PruneInfo licensing the executor to skip exactly those.
//
// Licensing is by re-certification, not by trust in the analysis: each
// candidate is tentatively pruned and the FULL race check and liveness
// check re-run on the precisely rebuilt pruned graph (the builder
// consults the PruneInfo at exactly the points the executor does). A
// candidate that breaks any conflict ordering or any liveness property is
// reverted. Dropping edges from Check's successor table would NOT be a
// sound license: the builder's unlabeled structural edges (a done event
// feeding the loop-end quiescence merge) would survive the deletion, while
// the executor skipping the sync loses them too — hence the rebuild.

import (
	"sync/atomic"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/region"
)

// AnalyzePruned builds the conflict set and happens-before graph of the
// schedule as the executor would run it under info: pruned sync events are
// never created (or become orphans when a kept edge still waits on them),
// pruned init populations never write, and producer completions stand in
// for pruned done events in the quiescence merges.
func AnalyzePruned(c *cr.Compiled, info *cr.PruneInfo) (*Analysis, error) {
	p, err := newPlanner(c, info)
	if err != nil {
		return nil, err
	}
	return p.base, nil
}

// SyncEdges counts the labeled (deletable) synchronization edges of the
// analyzed graph — the quantity pruning strictly reduces.
func (a *Analysis) SyncEdges() int {
	n := 0
	a.g.edges.each(func(e *edge) {
		if e.class != edgeStruct {
			n++
		}
	})
	return n
}

// planner is the state of one certifier call — the plan's index, the info
// being planned, the base analysis, a closure slab every pruned graph fits,
// and the last discarded build, whose slabs the next one takes over — never
// a package variable: parallel -prune sweeps plan several cells at once. A
// build without a dead init reuses the base's conflicts: only init,
// init-copy, task, copy-member and final nodes record accesses, created in
// an order no war/done/chain prune changes (TestConflictsArePruneInvariant).
type planner struct {
	ix    *index
	info  *cr.PruneInfo
	base  *Analysis
	reach reachability
	spare *builder
}

// newPlanner indexes c and analyses its schedule under info: the base.
func newPlanner(c *cr.Compiled, info *cr.PruneInfo) (*planner, error) {
	if c == nil {
		return nil, errNilLoop
	}
	ix, err := newIndex(c)
	if err != nil {
		return nil, err
	}
	p := &planner{ix: ix, info: info}
	p.base = p.analysis(p.build(false))
	return p, nil
}

// planOf is newPlanner under the plan's own prune: the schedule that runs.
func planOf(c *cr.Compiled) (*planner, error) {
	if c == nil {
		return nil, errNilLoop
	}
	return newPlanner(c, c.Prune)
}

// verdicts are a's races and liveness reports, closed on p's slab.
func (p *planner) verdicts(a *Analysis) (races, live *Report) {
	return a.check(&p.reach, nil), a.CheckLiveness()
}

// build replays the schedule under p.info on the slabs of the last
// discarded build.
func (p *planner) build(collectWar bool) *builder {
	b := newBuilder(p.ix, p.info, p.spare)
	p.spare, b.collectWar = nil, collectWar
	b.build()
	return b
}

// analysis is b's replay with its conflicts: the base's where the replay
// cannot have changed them, enumerated otherwise.
func (p *planner) analysis(b *builder) *Analysis {
	a := &Analysis{c: p.ix.c, ix: p.ix.Index, g: b.g, accs: b.accs, refs: b.refs}
	if p.base != nil && p.info.PrunedInits() == 0 && len(b.accs) == len(p.base.accs) {
		a.conflicts, a.insts, a.cross = p.base.conflicts, p.base.insts, p.base.cross
	} else {
		a.conflicts, a.insts, a.cross = enumerateConflicts(b.g, b.accs, len(b.refs))
	}
	return a
}

// certifies reports whether the schedule under p.info passes the race and
// liveness checks: a yes/no question asked some twenty times per plan, with
// no witness rendered. A build without a dead init whose access list is not
// the base's fails closed.
func (p *planner) certifies() bool {
	counts.certifications.Add(1)
	b := p.build(false)
	defer func() { p.spare = b }()
	if p.info.PrunedInits() == 0 && len(b.accs) != len(p.base.accs) {
		return false
	}
	a := p.analysis(b)
	return a.ordered(&p.reach) && a.CheckLiveness().OK()
}

// pruneSampleBatch is the batch size above which a failing batch is
// probed at three sample positions before bisecting. At and below it,
// bisection is exhaustive, so every fixture-scale rejection is exact.
const pruneSampleBatch = 12

// acceptMax accepts a maximal certifying subset of the candidate batch
// into p.info, in order, each certification run with everything accepted
// so far in force.
//
// Acceptance is batched: every pruned graph is a subgraph of the
// certified unpruned graph, so if the whole batch certifies on top of the
// current info, each of its candidates would also have been accepted
// one at a time (un-pruning candidates only restores happens-before edges
// to an acyclic, fully-triggered graph — it cannot introduce a race, a
// cycle, or an orphaned event). Wholesale acceptance is therefore exactly
// the greedy result at one certification per batch — the difference
// between O(candidates) and O(classes) certifications when a class
// accepts or rejects homogeneously (proposeWars handles the war class,
// where acceptance is fine-grained at scale).
//
// A failing batch bisects. Above pruneSampleBatch, a failing batch is
// first probed at its first, middle, and last candidates: if all three
// fail individually, the whole batch is rejected without further
// certification. Candidate classes fail homogeneously in practice (a
// quiescence merge that needs one done event needs them all), so the
// sampling collapses the all-rejected case from O(n) to O(1)
// certifications; a heterogeneous batch that fools all three samples
// under-prunes but still ships a certified (merely non-maximal) info.
// Fixture-scale batches sit under the threshold, so the minimality
// obligation (TestPrunedScheduleMinimal) is probed against exact greedy
// output.
func (p *planner) acceptMax(batch []func(v bool)) {
	if len(batch) == 0 {
		return
	}
	for _, set := range batch {
		set(true)
	}
	if p.certifies() {
		return
	}
	for _, set := range batch {
		set(false)
	}
	if len(batch) == 1 {
		return
	}
	if len(batch) > pruneSampleBatch {
		allFail := true
		for _, i := range []int{0, len(batch) / 2, len(batch) - 1} {
			batch[i](true)
			ok := p.certifies()
			batch[i](false)
			if ok {
				allFail = false
				break
			}
		}
		if allFail {
			return
		}
	}
	mid := len(batch) / 2
	p.acceptMax(batch[:mid])
	p.acceptMax(batch[mid:])
}

// warObligationFailures builds the pruned graph under p.info, collecting
// one obligation per p2p war slot, and returns the slots whose obligation
// fails. A pruned slot's obligation is that every release-set node still
// reaches the producer's copy node through the remaining graph. A kept
// slot's obligation asks whether removing exactly this event would
// preserve the ordering: a war node's only successor is cn, the head copy
// node of the transfer carrying its pair, so no path between two other nodes ever routes through it (it would
// have to continue through cn and return — a cycle), and the question
// reduces to "does every release node reach some other in-neighbor of
// cn". Both tests are against the precise executor-pruned graph.
func (p *planner) warObligationFailures() map[[2]int]bool {
	b := p.build(true)
	defer func() { p.spare = b }()
	g, reach := b.g, &p.reach
	reach.closure(&g.succ)
	cns := make(map[nodeID]bool)
	for _, ob := range b.warObs {
		if ob.warN >= 0 && ob.cn >= 0 {
			cns[ob.cn] = true
		}
	}
	inOf := make(map[nodeID][]nodeID)
	g.edges.each(func(e *edge) {
		if cns[e.to] {
			inOf[e.to] = append(inOf[e.to], e.from)
		}
	})
	bad := make(map[[2]int]bool)
	for _, ob := range b.warObs {
		key := [2]int{ob.copyID, int(ob.k)}
		if bad[key] {
			continue
		}
		if ob.cn < 0 {
			bad[key] = true
			continue
		}
		for _, r := range b.nodes(ob.release) {
			ok := false
			if ob.warN < 0 {
				ok = reach.reaches(r, ob.cn)
			} else {
				for _, w := range inOf[ob.cn] {
					if w != ob.warN && (w == r || reach.reaches(r, w)) {
						ok = true
						break
					}
				}
			}
			if !ok {
				bad[key] = true
				break
			}
		}
	}
	return bad
}

// proposeWars accepts the analytically redundant bulk of the p2p war
// candidates in rounds, each round one graph build plus one reachability
// closure instead of one certification per candidate. Round 1 prunes every
// candidate and keeps exactly the slots whose obligation holds in that
// graph — restoring the rejects afterwards only adds ordering, so the
// accepted set certifies jointly by construction (one belt-and-braces
// certification checks it). Later rounds catch wars redundant only
// through war nodes the first round deleted from under them: each tests
// the kept slots individually against the current graph and feeds the
// passers through acceptMax (wars whose witnesses use each other can
// invalidate joint acceptance, which the batched certification then
// resolves). Rounds repeat until a round accepts nothing. This is what
// keeps -prune off the O(accepted-candidates) certification treadmill
// when acceptance is fine-grained at scale: half of figure2's wars prune
// at 64 shards, which costs ~275 bisection certifications but 2 here.
// Slots the rounds reject are re-tried by the caller through acceptMax,
// preserving the exact greedy maximality obligation at fixture scale.
func (p *planner) proposeWars() {
	type cand struct {
		cp *cr.CopyOp
		k  int
	}
	info := p.info
	set := func(cd cand, v bool) { info.SetWar(cd.cp.ID, cd.k, len(cd.cp.Pairs), v) }
	var all []cand
	for _, op := range p.ix.c.Body {
		cp := op.Copy
		if cp == nil || len(cp.Pairs) == 0 {
			continue
		}
		for k := range cp.Pairs {
			if !info.SkipWar(cp.ID, k) {
				all = append(all, cand{cp, k})
			}
		}
	}
	if len(all) == 0 {
		return
	}

	// Round 1: joint proposal against the all-candidates-pruned graph.
	for _, cd := range all {
		set(cd, true)
	}
	bad := p.warObligationFailures()
	var remaining []cand
	for _, cd := range all {
		if bad[[2]int{cd.cp.ID, cd.k}] {
			set(cd, false)
			remaining = append(remaining, cd)
		}
	}
	if len(remaining) < len(all) && !p.certifies() {
		// The joint proposal should certify by construction; if it ever
		// does not, revert it all and let the caller's exact path decide.
		for _, cd := range all {
			set(cd, false)
		}
		return
	}

	// Later rounds: individual tests against the current graph.
	for len(remaining) > 0 {
		bad := p.warObligationFailures()
		var batch []func(v bool)
		var took, next []cand
		for _, cd := range remaining {
			if bad[[2]int{cd.cp.ID, cd.k}] {
				next = append(next, cd)
				continue
			}
			took = append(took, cd)
			batch = append(batch, func(v bool) { set(cd, v) })
		}
		if len(batch) == 0 {
			return
		}
		before := info.PrunedWar()
		p.acceptMax(batch)
		if info.PrunedWar() == before {
			return
		}
		for _, cd := range took {
			if !info.SkipWar(cd.cp.ID, cd.k) {
				next = append(next, cd)
			}
		}
		remaining = next
	}
}

// PlanPrune runs the redundant-sync and dead-init analyses over a compiled
// loop and returns the licensed PruneInfo with a pass report. The caller
// attaches the info to Compiled.Prune to activate it. If the unpruned
// schedule itself fails certification, the report carries those findings
// and no pruning is attempted.
func PlanPrune(c *cr.Compiled) (*cr.PruneInfo, *Report, error) {
	p, err := planOf(c)
	if err != nil {
		return nil, nil, err
	}
	info, rep, _ := p.prune(p.verdicts(p.base))
	return info, rep, nil
}

// prune is PlanPrune given the base analysis's races and liveness reports.
// It also returns the licensed schedule's liveness report, for Certify.
func (p *planner) prune(races, live *Report) (*cr.PruneInfo, *Report, *Report) {
	for _, r := range []Report{*races, *live} {
		if !r.OK() {
			r.Pass = "prune"
			return nil, &r, nil
		}
	}
	c, a0 := p.ix.c, p.base
	if c.Prune.PrunedInits() > 0 { // reuse needs the unpruned access list
		p.base, p.info = nil, nil
		p.base = p.analysis(p.build(false))
	}

	info := &cr.PruneInfo{}
	p.info = info
	// Candidate classes in a fixed, deterministic order: interior
	// reduction-chain links, then p2p war slots, then done slots, each in
	// body order (a done is only prunable once no kept chain waits on it).
	// Done candidates exist wherever the executor creates the event: every
	// p2p pair, but only reduce-chain pairs under barriers (the barrier
	// lowering has no per-pair done otherwise — pruning one would be
	// vacuously certified and dishonestly counted).
	// Chain candidates likewise exist only where the schedule has the edge:
	// under aggregation a link between two members of one transfer is the
	// transfer body's write order, not a sync to prune.
	chained := a0.g.labels(EdgeChain)
	var chains, dones []func(v bool)
	for _, op := range c.Body {
		cp := op.Copy
		if cp == nil || len(cp.Pairs) == 0 {
			continue
		}
		n := len(cp.Pairs)
		if cp.Reduce != region.ReduceNone {
			for _, gr := range groups(cp) {
				for k := gr[0] + 1; k < gr[1]; k++ {
					if !chained[EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k}] {
						continue
					}
					chains = append(chains, func(v bool) { info.SetChain(cp.ID, k, n, v) })
				}
			}
		}
		if c.Opts.Sync == cr.PointToPoint || cp.Reduce != region.ReduceNone {
			for k := 0; k < n; k++ {
				dones = append(dones, func(v bool) { info.SetDone(cp.ID, k, n, v) })
			}
		}
	}
	p.acceptMax(chains)
	if c.Opts.Sync == cr.PointToPoint {
		// Wars: the analytic proposal takes the jointly redundant bulk in
		// one certification; the rejects get the exact greedy treatment.
		p.proposeWars()
		var wars []func(v bool)
		for _, op := range c.Body {
			cp := op.Copy
			if cp == nil || len(cp.Pairs) == 0 {
				continue
			}
			n := len(cp.Pairs)
			for k := 0; k < n; k++ {
				if info.SkipWar(cp.ID, k) {
					continue
				}
				wars = append(wars, func(v bool) { info.SetWar(cp.ID, k, n, v) })
			}
		}
		p.acceptMax(wars)
	}
	p.acceptMax(dones)

	// Dead initialization populations, computed against the pruned graph's
	// reachability (a kept sync edge may be exactly what covers a read).
	p.markDeadInits()
	af := p.analysis(p.build(false))
	rep, final := p.verdicts(af)
	if (!rep.OK() || !final.OK()) && info.PrunedInits() > 0 {
		// Coverage is sound by construction; never ship it uncertified.
		info.DeadInit = nil
		af = p.analysis(p.build(false))
		rep, final = p.verdicts(af)
	}
	rep.Pass = "prune"
	rep.Counters = map[string]int64{
		"pruned_war":         int64(info.PrunedWar()),
		"pruned_done":        int64(info.PrunedDone()),
		"pruned_chain":       int64(info.PrunedChain()),
		"pruned_edges":       int64(info.PrunedEdges()),
		"pruned_init_copies": int64(info.PrunedInits()),
		"sync_edges_before":  int64(a0.SyncEdges()),
		"sync_edges_after":   int64(af.SyncEdges()),
	}
	return info, rep, final
}

// markDeadInits marks instances whose initialization population is dead:
// every read of the instance (including finalization read-backs; writes
// that may also read — task read-write updates and reduction folds — count
// as reads) is covered, element for element and field for field, by plain
// copy overwrites that happen-before it. Such an instance's contents before
// its first overwrite are unobservable, so the population — a real
// cross-node transfer in the init phase — can be skipped.
func (p *planner) markDeadInits() {
	b := p.build(false)
	defer func() { p.spare = b }()
	c, g, reach := p.ix.c, b.g, &p.reach
	reach.closure(&g.succ)

	type use struct {
		n      nodeID
		fields []region.FieldID
		space  geometry.IndexSpace
	}
	reads := make([][]use, len(b.refs))
	covers := make([][]use, len(b.refs))
	for _, ac := range b.accs {
		if slot, _ := p.ix.Split(b.refs[ac.inst]); p.ix.Slots[slot].Launch != nil {
			continue // reduce temporaries are never initialized from the parent
		}
		nd := &g.nodes[ac.n]
		switch {
		case !ac.write:
			reads[ac.inst] = append(reads[ac.inst], use{ac.n, ac.fields, ac.space})
		case nd.kind == kInit:
			// The candidate for removal itself.
		case (nd.kind == kCopy || nd.kind == kInitCopy) && copyIsPlain(c, nd.copyID):
			covers[ac.inst] = append(covers[ac.inst], use{ac.n, ac.fields, ac.space})
		default:
			// A write that may read its prior contents (task read-write
			// updates, reduction folds): treat as a read, never as cover.
			reads[ac.inst] = append(reads[ac.inst], use{ac.n, ac.fields, ac.space})
		}
	}

	for pi, part := range c.UsedParts {
		for ci, col := range c.Domain {
			var rs, ws []use // none for an instance the replay never touched
			if id := b.ids[p.ix.Key(int32(pi), ci)]; id >= 0 {
				rs, ws = reads[id], covers[id]
			}
			dead := true
			for _, r := range rs {
				remaining := r.space
				for _, w := range ws {
					if remaining.Empty() {
						break
					}
					if w.n == r.n || !reach.reaches(w.n, r.n) {
						continue
					}
					if !region.CoversFields(w.fields, r.fields) {
						continue
					}
					remaining = remaining.Subtract(w.space)
				}
				if !remaining.Empty() {
					dead = false
					break
				}
			}
			if dead {
				p.info.SetInit(part, c.ColorIdx[col], len(c.Domain), true)
			}
		}
	}
}

// copyIsPlain reports whether the copy overwrites (ReduceNone) rather than
// folds — only plain overwrites may cover a read for dead-init purposes.
func copyIsPlain(c *cr.Compiled, copyID int32) bool {
	cp := copyByID(c, copyID)
	return cp != nil && cp.Reduce == region.ReduceNone
}

// counts tallies builds, closures, liveness passes and certifications for
// tests (atomic: a parallel sweep under -prune plans several cells at once).
var counts struct{ builds, closures, liveness, certifications atomic.Int64 }
