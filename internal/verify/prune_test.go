package verify

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/region"
)

// TestPlanPruneFixtures: the prune pass must certify every fixture, its
// counters must be internally consistent, and the sync-edge count must
// strictly drop exactly when edges were pruned. Figure2 under p2p pins the
// non-vacuity of both prune classes: redundant war edges and dead
// initialization populations exist and are found.
func TestPlanPruneFixtures(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range fixtures(t, sync, false) {
			info, rep, err := PlanPrune(c)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sync, err)
			}
			if !rep.OK() {
				for _, f := range rep.Findings {
					t.Errorf("%s %v: %s", name, sync, f)
				}
				t.Fatalf("%s %v: prune pass rejected a correct schedule", name, sync)
			}
			if rep.Pass != "prune" {
				t.Errorf("%s %v: report pass %q, want prune", name, sync, rep.Pass)
			}
			cnt := rep.Counters
			if got := cnt["pruned_war"] + cnt["pruned_done"] + cnt["pruned_chain"]; got != cnt["pruned_edges"] {
				t.Errorf("%s %v: pruned_edges=%d but classes sum to %d", name, sync, cnt["pruned_edges"], got)
			}
			before, after := cnt["sync_edges_before"], cnt["sync_edges_after"]
			if cnt["pruned_edges"] > 0 && after >= before {
				t.Errorf("%s %v: pruned %d edges but sync edges %d -> %d (no strict reduction)",
					name, sync, cnt["pruned_edges"], before, after)
			}
			if cnt["pruned_edges"] == 0 && cnt["pruned_init_copies"] == 0 && after != before {
				t.Errorf("%s %v: nothing pruned but sync edges %d -> %d", name, sync, before, after)
			}
			if name == "figure2" && sync == cr.PointToPoint {
				if cnt["pruned_edges"] == 0 {
					t.Error("figure2 p2p: no redundant sync found; the pass is vacuous")
				}
				if cnt["pruned_init_copies"] == 0 || info.PrunedInits() == 0 {
					t.Error("figure2 p2p: no dead init populations found; ghost instances are fully overwritten before every read")
				}
			}
		}
	}
}

// pruneCandidates re-enumerates the prune pass's candidate set for a
// compiled loop: one setter per chain link, per p2p war slot, and per done
// slot that the executor actually materializes.
type pruneCandidate struct {
	name string
	set  func(info *cr.PruneInfo, v bool)
}

func pruneCandidates(c *cr.Compiled) []pruneCandidate {
	var out []pruneCandidate
	for _, op := range c.Body {
		cp := op.Copy
		if cp == nil || len(cp.Pairs) == 0 {
			continue
		}
		n := len(cp.Pairs)
		if cp.Reduce != region.ReduceNone {
			for _, gr := range groups(cp) {
				for k := gr[0] + 1; k < gr[1]; k++ {
					k := k
					out = append(out, pruneCandidate{
						name: "chain",
						set:  func(info *cr.PruneInfo, v bool) { info.SetChain(cp.ID, k, n, v) },
					})
				}
			}
		}
		for k := 0; k < n; k++ {
			k := k
			if c.Opts.Sync == cr.PointToPoint {
				out = append(out, pruneCandidate{
					name: "war",
					set:  func(info *cr.PruneInfo, v bool) { info.SetWar(cp.ID, k, n, v) },
				})
			}
			if c.Opts.Sync == cr.PointToPoint || cp.Reduce != region.ReduceNone {
				out = append(out, pruneCandidate{
					name: "done",
					set:  func(info *cr.PruneInfo, v bool) { info.SetDone(cp.ID, k, n, v) },
				})
			}
		}
	}
	return out
}

// TestPrunedScheduleMinimal: after greedy pruning every surviving candidate
// is essential — additionally pruning any one of them must fail
// re-certification (a race or a liveness defect on the precisely rebuilt
// pruned graph). This is the "minimally sufficient schedule" obligation:
// the detector that licenses pruning also catches every over-prune.
func TestPrunedScheduleMinimal(t *testing.T) {
	checked := 0
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range fixtures(t, sync, false) {
			info, rep, err := PlanPrune(c)
			if err != nil || !rep.OK() {
				t.Fatalf("%s %v: prune failed: %v %v", name, sync, err, rep.Findings)
			}
			p, err := newPlanner(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.info = info; !p.certifies() {
				t.Fatalf("%s %v: shipped prune set does not certify", name, sync)
			}
			for _, cand := range pruneCandidates(c) {
				// Setting the candidate on the shipped info is a no-op (same
				// pruned-edge count) exactly when the greedy pass already
				// accepted it — only survivors get probed.
				beforeCnt := info.PrunedEdges()
				cand.set(info, true)
				if info.PrunedEdges() == beforeCnt {
					continue
				}
				if p.certifies() {
					t.Errorf("%s %v: surviving %s candidate is redundant: pruning it still certifies (greedy pass should have taken it)",
						name, sync, cand.name)
				}
				cand.set(info, false)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no surviving candidates checked; the minimality test is vacuous")
	}
}

// TestCertifiesFailsClosed: a build without a dead init reuses the
// unpruned analysis's conflicts, which index its access list; a build whose
// list does not line up with that one is refused, not certified against
// pairs that name other accesses.
func TestCertifiesFailsClosed(t *testing.T) {
	p, err := newPlanner(fixtures(t, cr.PointToPoint, false)["figure2"], nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.info = (&cr.PruneInfo{}); !p.certifies() {
		t.Fatal("the unpruned schedule does not certify")
	}
	p.base.accs = p.base.accs[:len(p.base.accs)-1]
	if p.certifies() {
		t.Error("a build whose access list differs from the unpruned one's certified")
	}
}

// dropPruned reports whether any of a mutation's dropped edges was itself
// removed by the prune pass — such a mutation no longer models a bug the
// pruned executor could have (the sync does not exist to miswire), so the
// pruned-schedule harnesses skip it.
func dropPruned(info *cr.PruneInfo, drop []EdgeID) bool {
	for _, d := range drop {
		switch d.Class {
		case EdgeWAR:
			if info.SkipWar(d.Copy, d.Pair) {
				return true
			}
		case EdgeDone:
			if info.SkipDone(d.Copy, d.Pair) {
				return true
			}
		case EdgeChain:
			if info.SkipChain(d.Copy, d.Pair) {
				return true
			}
		}
	}
	return false
}

// TestPrunedScheduleMutations re-runs both mutation harnesses on the
// *pruned* schedules: deleting any essential sync the pruner kept must
// still be detected (100%), miswiring any kept sync must still deadlock,
// and the clean pruned schedule itself must produce zero findings.
func TestPrunedScheduleMutations(t *testing.T) {
	raceMuts, liveMuts := 0, 0
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range fixtures(t, sync, false) {
			info, rep, err := PlanPrune(c)
			if err != nil || !rep.OK() {
				t.Fatalf("%s %v: prune failed: %v %v", name, sync, err, rep.Findings)
			}
			a, err := AnalyzePruned(c, info)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sync, err)
			}
			// Zero false positives on the clean pruned schedule.
			if r := a.Check(); !r.OK() {
				for _, f := range r.Findings {
					t.Errorf("%s %v pruned false positive: %s", name, sync, f)
				}
			}
			if r := a.CheckLiveness(); !r.OK() {
				for _, f := range r.Findings {
					t.Errorf("%s %v pruned liveness false positive: %s", name, sync, f)
				}
			}
			// Race harness: essential deletions untouched by pruning must
			// still be caught on the pruned graph (pruning elsewhere never
			// creates new happens-before routes).
			for _, m := range a.Mutations() {
				if !m.Essential || dropPruned(info, m.Drop) {
					continue
				}
				raceMuts++
				r := a.Check(m.Drop...)
				if r.OK() {
					t.Errorf("%s %v pruned: missed essential mutation %s", name, sync, m.Name)
					continue
				}
				for _, f := range r.Findings {
					if !m.Covers(f) {
						t.Errorf("%s %v pruned: mutation %s produced unrelated finding: %s", name, sync, m.Name, f)
					}
				}
			}
			// Liveness harness: enumerated from the pruned graph itself, so
			// every mutation rewires sync that survived pruning.
			for _, m := range a.LivenessMutations() {
				liveMuts++
				if r := a.CheckLivenessMutated(m); r.OK() {
					t.Errorf("%s %v pruned: missed liveness mutation %s", name, sync, m.Name)
				}
			}
		}
	}
	if raceMuts == 0 || liveMuts == 0 {
		t.Fatalf("pruned mutation harness vacuous: %d race, %d liveness mutations", raceMuts, liveMuts)
	}
}
