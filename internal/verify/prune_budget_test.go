package verify

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/progtest"
	"repro/internal/spmd"
)

// TestPruneCertificationBudget pins the certification count of PlanPrune
// at a scale where acceptance is fine-grained (half of figure2's war
// slots prune at 64 shards). The analytic war proposal must keep the
// count at a handful of certifications — one per round plus the sampled
// all-reject batches — not the O(accepted-candidates) bisection cost
// (~275 certifications here) that made -prune unaffordable at the
// 1024-shard end of the weak-scaling sweep.
func TestPruneCertificationBudget(t *testing.T) {
	const n = 64
	f := progtest.NewFigure2(int64(n)*64, int64(n), 3)
	plans, err := spmd.CompileAll(f.Prog, cr.Options{NumShards: n, Sync: cr.PointToPoint})
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range plans {
		var info *cr.PruneInfo
		var rep *Report
		var err error
		w := WorkOf(func() { info, rep, err = PlanPrune(plan) })
		if err != nil || !rep.OK() {
			t.Fatalf("prune failed: %v %v", err, rep)
		}
		if info.PrunedWar() == 0 {
			t.Fatalf("no wars pruned at %d shards; the budget test is vacuous", n)
		}
		if rep.Counters["sync_edges_after"] >= rep.Counters["sync_edges_before"] {
			t.Fatalf("sync edges not reduced: %d -> %d",
				rep.Counters["sync_edges_before"], rep.Counters["sync_edges_after"])
		}
		if w.Certifications > 20 {
			t.Errorf("PlanPrune used %d certifications for %d pruned wars; want <= 20 (the analytic proposal should accept the bulk in rounds)",
				w.Certifications, info.PrunedWar())
		}
	}
}
