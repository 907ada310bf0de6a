package verify

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/progtest"
)

// forEachPlan runs fn, as a subtest "fixture/sync" (as compiled) and
// "fixture/pruned/sync" (with the prune PlanPrune licenses attached — on an
// aggregated plan, the composed prune∘agg plan), on every fixture compiled
// plain or aggregated under both lowerings.
func forEachPlan(t *testing.T, fxs []fixture, agg bool, fn func(t *testing.T, fx string, a *Analysis, info *cr.PruneInfo)) {
	for _, fx := range fxs {
		for _, prune := range []bool{false, true} {
			name := fx.name
			if prune {
				name += "/pruned"
			}
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				t.Run(fmt.Sprintf("%s/%v", name, sync), func(t *testing.T) {
					c := compileOpts(t, fx.prog, fx.loop, cr.Options{NumShards: fx.shards, Sync: sync, Agg: agg})
					if prune {
						info, rep, err := PlanPrune(c)
						if err != nil || !rep.OK() {
							t.Fatalf("prune failed: %v %v", err, rep)
						}
						c.Prune = info
					}
					a, err := Analyze(c)
					if err != nil {
						t.Fatal(err)
					}
					fn(t, fx.name, a, c.Prune)
				})
			}
		}
	}
}

// soundnessFixtures are the example fixtures plus Figure 2 at one iteration
// and the region reduction at one and three iterations on 4 shards. The
// examples' Figure 2 is the three-iteration one on 4 shards; trip3 names it.
func soundnessFixtures(trip3 string) []fixture {
	fxs := exampleFixtures()
	fxs[0].name = trip3
	f2 := progtest.NewFigure2(48, 8, 1)
	fxs = append(fxs, fixture{"figure2/trip=1", f2.Prog, f2.Loop, 4})
	for _, trip := range []int{1, 3} {
		rr := progtest.NewRegionReduce(24, 4, trip)
		fxs = append(fxs, fixture{fmt.Sprintf("regionreduce/trip=%d", trip), rr.Prog, rr.Loop, 4})
	}
	return fxs
}

// TestMutationSoundness is the checker's own soundness check, on every
// plain plan forEachPlan builds from soundnessFixtures: (1) the unmutated
// schedule verifies clean and live — zero false positives; (2) every
// essential sync deletion is detected — 100% detection; (3) every finding a
// mutated schedule produces points at the mutation — no misattribution. On
// a pruned plan a deletion the prune already made is skipped.
func TestMutationSoundness(t *testing.T) { checkMutationSoundness(t, false, "figure2/trip=3") }

// TestAggMutationSoundness is TestMutationSoundness on the aggregated plans,
// where a p2p sync deletion drops a whole group's sync.
func TestAggMutationSoundness(t *testing.T) { checkMutationSoundness(t, true, "figure2") }

func checkMutationSoundness(t *testing.T, agg bool, figure2 string) {
	// Where the essential deletions must not all be pruned away: the
	// example fixtures with inserted cross-color sync.
	wantEssential := map[string]bool{figure2: true, "regionreduce": true}
	forEachPlan(t, soundnessFixtures(figure2), agg, func(t *testing.T, fx string, a *Analysis, info *cr.PruneInfo) {
		if rep := a.Check(); !rep.OK() {
			for _, f := range rep.Findings {
				t.Errorf("false positive: %s", f)
			}
			t.Fatalf("unmutated schedule failed verification (%d findings)", len(rep.Findings))
		}
		if rep := a.CheckLiveness(); !rep.OK() {
			for _, f := range rep.Findings {
				t.Errorf("liveness false positive: %s", f)
			}
		}
		muts := a.Mutations()
		detected, essential := 0, 0
		for _, m := range muts {
			if dropPruned(info, m.Drop) {
				continue
			}
			rep := a.Check(m.Drop...)
			if !rep.OK() {
				detected++
			}
			if m.Essential {
				essential++
				if rep.OK() {
					t.Errorf("missed essential mutation %s", m.Name)
				}
			}
			for _, f := range rep.Findings {
				if !m.Covers(f) {
					t.Errorf("mutation %s produced a finding not involving the mutated copies: %s", m.Name, f)
				}
			}
		}
		if wantEssential[fx] && essential == 0 {
			t.Errorf("no essential mutations enumerated; the harness is vacuous")
		}
		t.Logf("%d mutations, %d essential, %d detected", len(muts), essential, detected)
	})
}

// TestMutationsCoverEverySyncEdge asserts that under point-to-point sync
// the enumerated mutations' deletion sets cover every labeled sync edge in
// the graph of a plain plan: no inserted synchronization escapes the
// harness. (Under barriers the per-copy barrier deletion is the unit; the
// reduce-ordering done/chain events inside the barrier window are exercised
// only through the chain mutations.)
func TestMutationsCoverEverySyncEdge(t *testing.T) { checkSyncEdgesCovered(t, false) }

// TestAggMutationsCoverEverySyncEdge is TestMutationsCoverEverySyncEdge on
// an aggregated plan, whose sync edges are member wars, fanned-out dones and
// external chains.
func TestAggMutationsCoverEverySyncEdge(t *testing.T) { checkSyncEdgesCovered(t, true) }

func checkSyncEdgesCovered(t *testing.T, agg bool) {
	f := progtest.NewRegionReduce(24, 4, 3)
	a, err := Analyze(compileOpts(t, f.Prog, f.Loop, cr.Options{NumShards: 4, Agg: agg}))
	if err != nil {
		t.Fatal(err)
	}
	covered := map[EdgeID]bool{}
	for _, m := range a.Mutations() {
		for _, id := range m.Drop {
			covered[id] = true
		}
	}
	for _, part := range a.g.edges.parts {
		for _, e := range part {
			if e.class != edgeStruct && !covered[e.label()] {
				t.Errorf("sync edge %v not covered by any mutation", e.label())
			}
		}
	}
}

// TestMutationCovers pins the one attribution rule: a finding is covered
// when a witness op — either side, or any op of a wait cycle — belongs to a
// mutated copy, or when its instance is one of a mutated destination's; a
// destination whose name merely prefixes the instance's partition does not
// count.
func TestMutationCovers(t *testing.T) {
	m := Mutation{Name: "p2p-sync(copy 3, pair 0)", Copies: []int{3}, Dsts: []string{"SHR"}}
	task, other, mutated := OpRef{Kind: "task", Copy: -1}, OpRef{Kind: "copy", Copy: 4}, OpRef{Kind: "copy", Copy: 3}
	for _, tc := range []struct {
		name string
		f    Finding
		want bool
	}{
		{"copy on the A side", Finding{A: mutated, B: task}, true},
		{"copy on the B side", Finding{A: task, B: mutated}, true},
		{"copy on a cycle op only", Finding{Kind: "cycle", A: other, B: task, Cycle: []OpRef{other, task, mutated, other}}, true},
		{"destination instance", Finding{Instance: "SHR[<0>]", A: task, B: task}, true},
		{"name prefix only", Finding{Instance: "SHR2[<0>]", A: task, B: task}, false},
		{"another copy", Finding{Instance: "GHOST[<1>]", A: other, B: task, Cycle: []OpRef{other, task, other}}, false},
	} {
		if got := m.Covers(tc.f); got != tc.want {
			t.Errorf("%s: Covers = %t, want %t", tc.name, got, tc.want)
		}
	}

	// A race mutation carries no liveness state: handed to the liveness
	// pass, it adds no edge and suppresses no barrier arrival.
	f := progtest.NewFigure2(48, 8, 3)
	a, err := Analyze(compile(t, f.Prog, f.Loop, 4, cr.BarrierSync))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.g.arrivals) == 0 {
		t.Fatal("no barrier arrivals; the check is vacuous")
	}
	clean := a.CheckLiveness()
	for _, m := range a.Mutations() {
		if rep := a.CheckLivenessMutated(m); !rep.OK() || rep.Stats != clean.Stats {
			t.Errorf("race mutation %s changed the liveness pass: %v %+v", m.Name, rep.Findings, rep.Stats)
		}
	}
}
