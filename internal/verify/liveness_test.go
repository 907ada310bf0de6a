package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
)

// fixture is one example program at the shard count the suites compile it
// for.
type fixture struct {
	name   string
	prog   *ir.Program
	loop   *ir.Loop
	shards int
}

// exampleFixtures are the programs the liveness, prune, aggregation and
// mutation suites run over: the paper's Figure 2 stencil at 8 pieces on 4
// shards (overdecomposed two-to-one, so aggregated exchange phases have
// multi-member remote groups), the region-reduction program at 4 pieces on
// 3 shards (cross-shard fold chains), and the scalar-sum program.
func exampleFixtures() []fixture {
	f2 := progtest.NewFigure2(48, 8, 3)
	rr := progtest.NewRegionReduce(24, 4, 3)
	ss := progtest.NewScalarSum(32, 4)
	return []fixture{
		{"figure2", f2.Prog, f2.Loop, 4},
		{"regionreduce", rr.Prog, rr.Loop, 3},
		{"scalarsum", ss.Prog, findLoops(ss.Prog)[0], 2},
	}
}

// fixtures compiles the example fixtures with aggregation off or on.
func fixtures(t *testing.T, sync cr.SyncMode, agg bool) map[string]*cr.Compiled {
	t.Helper()
	out := map[string]*cr.Compiled{}
	for _, fx := range exampleFixtures() {
		out[fx.name] = compileOpts(t, fx.prog, fx.loop, cr.Options{NumShards: fx.shards, Sync: sync, Agg: agg})
	}
	return out
}

// TestLivenessFixtures: every fixture compilation must be certified
// deadlock-free under both lowerings — zero false positives on correct
// schedules.
func TestLivenessFixtures(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range fixtures(t, sync, false) {
			a, err := Analyze(c)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sync, err)
			}
			rep := a.CheckLiveness()
			if rep.Pass != "liveness" {
				t.Errorf("%s %v: report pass %q, want liveness", name, sync, rep.Pass)
			}
			if !rep.OK() {
				for _, f := range rep.Findings {
					t.Errorf("%s %v false positive: %s", name, sync, f)
				}
			}
			if rep.Stats.Nodes == 0 {
				t.Errorf("%s %v: empty wait-for graph; the check is vacuous", name, sync)
			}
		}
	}
}

// TestLivenessMutationHarness: every sync miswiring the harness enumerates
// must be detected (100%), and every finding a mutated schedule produces
// must name the mutated copy with a kind the mutation predicts — on plain
// plans, with the prune attached or not.
func TestLivenessMutationHarness(t *testing.T) { checkLivenessMutations(t, false) }

// TestAggLivenessMutations is TestLivenessMutationHarness on the aggregated
// plans, whose node locator finds the member copy nodes and per-pair sync
// events inside the merged clusters.
func TestAggLivenessMutations(t *testing.T) { checkLivenessMutations(t, true) }

func checkLivenessMutations(t *testing.T, agg bool) {
	total := 0
	kinds := map[string]int{}
	forEachPlan(t, exampleFixtures(), agg, func(t *testing.T, _ string, a *Analysis, _ *cr.PruneInfo) {
		for _, m := range a.LivenessMutations() {
			total++
			rep := a.CheckLivenessMutated(m)
			if rep.OK() {
				t.Errorf("missed mutation %s", m.Name)
				continue
			}
			for _, f := range rep.Findings {
				kinds[f.Kind]++
				if !m.Covers(f) {
					t.Errorf("mutation %s produced unrelated finding: %s", m.Name, f)
				}
				if !slices.Contains(m.Kinds, f.Kind) {
					t.Errorf("mutation %s (kinds %v) produced kind %q: %s", m.Name, m.Kinds, f.Kind, f)
				}
			}
		}
	})
	if total == 0 {
		t.Fatal("no liveness mutations enumerated; the harness is vacuous")
	}
	// The harness must exercise both failure modes: wait cycles (p2p
	// inversions, barrier swaps, chain inversions) and barrier phase-count
	// mismatches (skipped arrivals).
	if kinds["cycle"] == 0 || kinds["phase-mismatch"] == 0 {
		t.Errorf("mutation findings cover kinds %v; want both cycle and phase-mismatch", kinds)
	}
}

// TestLivenessCycleWitness: a detected cycle must come with a concrete
// witness — the cycle path in wait order, closed (first == last), naming
// the sync events involved.
func TestLivenessCycleWitness(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	c := compile(t, f.Prog, f.Loop, 4, cr.PointToPoint)
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	var m *Mutation
	for _, cand := range a.LivenessMutations() {
		if strings.HasPrefix(cand.Name, "invert-prod-sync") {
			cand := cand
			m = &cand
			break
		}
	}
	if m == nil {
		t.Fatal("no invert-prod-sync mutation on figure2 p2p")
	}
	rep := a.CheckLivenessMutated(*m)
	if rep.OK() {
		t.Fatalf("mutation %s not detected", m.Name)
	}
	found := false
	for _, fd := range rep.Findings {
		if fd.Kind != "cycle" {
			continue
		}
		found = true
		if len(fd.Cycle) < 3 {
			t.Errorf("cycle witness too short: %v", fd.Cycle)
			continue
		}
		if fd.Cycle[0] != fd.Cycle[len(fd.Cycle)-1] {
			t.Errorf("cycle witness not closed: starts %+v ends %+v", fd.Cycle[0], fd.Cycle[len(fd.Cycle)-1])
		}
		if fd.Detail == "" {
			t.Error("cycle finding has no rendered detail")
		}
	}
	if !found {
		t.Errorf("no cycle finding among %d findings", len(rep.Findings))
	}
}

// TestLivenessRandomPrograms extends the randomized suite to the liveness
// pass: every random program's compilation must be deadlock-free under both
// lowerings, and every enumerated miswiring must be detected.
func TestLivenessRandomPrograms(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog, _, _ := progtest.RandomProgram(seed)
			for li, loop := range findLoops(prog) {
				for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
					c := compile(t, prog, loop, 3, sync)
					a, err := Analyze(c)
					if err != nil {
						t.Fatalf("loop %d %v: %v", li, sync, err)
					}
					if rep := a.CheckLiveness(); !rep.OK() {
						for _, f := range rep.Findings {
							t.Errorf("loop %d %v false positive: %s", li, sync, f)
						}
					}
					for _, m := range a.LivenessMutations() {
						if rep := a.CheckLivenessMutated(m); rep.OK() {
							t.Errorf("loop %d %v: missed mutation %s", li, sync, m.Name)
						}
					}
				}
			}
		})
	}
}
