package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

// TestPruneComposesWithAgg is the certifier's half of the prune∘agg column
// on the evaluation applications at 2x overdecomposition: PlanPrune run on
// an aggregated plan licenses a prune of the aggregated schedule. With the
// prune attached the plan verifies clean and live, the sync edges strictly
// drop wherever the prune of the unaggregated plan drops them, every sync
// deletion the certifier detects on the aggregated plan it still detects on
// the composed one (the pruned graph orders strictly less), and every
// miswiring of the sync the prune left in place deadlocks. The attribution
// half of the mutation harness (every finding points at the mutated group)
// runs on the fixtures, in TestAggMutationSoundness: on the applications a
// prune makes the surviving sync carry orderings far from its own copy.
func TestPruneComposesWithAgg(t *testing.T) {
	const shards, pieces = 4, 8
	for i, app := range evalApps {
		prog, loop := witnessProgram(i, pieces)
		for _, sync := range syncModes {
			t.Run(fmt.Sprintf("%s/%v", app.name, sync), func(t *testing.T) {
				_, plain, err := verify.PlanPrune(compileApp(t, prog, loop, cr.Options{NumShards: shards, Sync: sync}))
				if err != nil || !plain.OK() {
					t.Fatalf("unaggregated prune failed: %v %v", err, plain)
				}
				c := compileApp(t, prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: true})
				info, rep, err := verify.PlanPrune(c)
				if err != nil || !rep.OK() {
					t.Fatalf("prune of the aggregated plan failed: %v %v", err, rep)
				}
				before, after := rep.Counters["sync_edges_before"], rep.Counters["sync_edges_after"]
				if plain.Counters["sync_edges_after"] < plain.Counters["sync_edges_before"] && after >= before {
					t.Errorf("sync edges %d -> %d: no reduction where the unaggregated prune has one (%d -> %d)",
						before, after, plain.Counters["sync_edges_before"], plain.Counters["sync_edges_after"])
				}

				c.Prune = info
				if rep, err := verify.Verify(c); err != nil || !rep.OK() {
					t.Fatalf("composed plan does not verify: %v %v", err, rep)
				}
				a, err := verify.Analyze(c)
				if err != nil {
					t.Fatal(err)
				}
				if int64(a.SyncEdges()) != after {
					t.Errorf("plan with the prune attached has %d sync edges, the prune report says %d", a.SyncEdges(), after)
				}
				if rep := a.CheckLiveness(); !rep.OK() {
					t.Errorf("composed plan is not live: %v", rep.Findings)
				}

				c.Prune = nil
				base, err := verify.Analyze(c)
				if err != nil {
					t.Fatal(err)
				}
				detected := 0
				for _, m := range base.Mutations() {
					if base.Check(m.Drop...).OK() {
						continue
					}
					detected++
					if a.Check(m.Drop...).OK() {
						t.Errorf("the prune hides mutation %s, which the aggregated plan's certifier detects", m.Name)
					}
				}
				live := 0
				for _, m := range a.LivenessMutations() {
					live++
					if a.CheckLivenessMutated(m).OK() {
						t.Errorf("missed liveness mutation %s", m.Name)
					}
				}
				if detected == 0 || live == 0 {
					t.Errorf("vacuous harness: %d detected deletions, %d miswirings", detected, live)
				}
				t.Logf("sync edges %d -> %d (unaggregated %d -> %d); %d detected deletions, %d miswirings",
					before, after, plain.Counters["sync_edges_before"], plain.Counters["sync_edges_after"], detected, live)
			})
		}
	}
}
