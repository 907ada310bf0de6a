package verify_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/verify"
)

// checkAgainstOracle requires the predicate enumeration
// (region.SharedFields + IndexSpace.Overlaps over interned instances) to
// produce exactly the pair list the materialising enumeration did — same
// pairs, same orientation, same order — and Check to report the same
// totals.
func checkAgainstOracle(t *testing.T, name string, a *verify.Analysis, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, want := a.ConflictPairs(), a.OracleConflictPairs()
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: conflict %d is %+v, oracle has %+v (%d vs %d pairs)", name, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d conflicts, oracle has %d", name, len(got), len(want))
	}
	cross := 0
	for _, p := range want {
		if p.CrossShard {
			cross++
		}
	}
	st := a.Check().Stats
	if st.Conflicts != len(want) || st.CrossShard != cross {
		t.Errorf("%s: Stats report %d conflicts (%d cross-shard), oracle has %d (%d)", name, st.Conflicts, st.CrossShard, len(want), cross)
	}
	if st.Instances != a.Instances() || st.Instances == 0 {
		t.Errorf("%s: Stats report %d instances, analysis has %d", name, st.Instances, a.Instances())
	}
}

// checkVariants runs the oracle comparison on the plain, aggregated and
// pruned schedules of one loop.
func checkVariants(t *testing.T, name string, prog *ir.Program, loop *ir.Loop, shards int, sync cr.SyncMode) int {
	t.Helper()
	plan := compileApp(t, prog, loop, cr.Options{NumShards: shards, Sync: sync})
	a, err := verify.Analyze(plan)
	checkAgainstOracle(t, name+"/plain", a, err)
	aa, err := verify.Analyze(compileApp(t, prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: true}))
	checkAgainstOracle(t, name+"/agg", aa, err)
	info, rep, err := verify.PlanPrune(plan)
	if err != nil || !rep.OK() {
		t.Fatalf("%s: PlanPrune: %v %v", name, err, rep)
	}
	ap, err := verify.AnalyzePruned(plan, info)
	checkAgainstOracle(t, name+"/pruned", ap, err)
	return len(a.ConflictPairs())
}

func TestConflictPredicateMatchesOracleApps(t *testing.T) {
	for _, app := range evalApps {
		for _, shards := range []int{4, 16} {
			prog, loop := app.build(shards)
			for _, sync := range syncModes {
				name := fmt.Sprintf("%s/%d/%v", app.name, shards, sync)
				if n := checkVariants(t, name, prog, loop, shards, sync); n == 0 {
					t.Errorf("%s: no conflicts; the comparison is vacuous", name)
				}
			}
		}
	}
}

func TestConflictPredicateMatchesOracleRandom(t *testing.T) {
	total := 0
	for seed := int64(0); seed < 30; seed++ {
		prog, _, _ := progtest.RandomProgram(seed)
		for li, s := range prog.Stmts {
			loop, ok := s.(*ir.Loop)
			if !ok {
				continue
			}
			for _, sync := range syncModes {
				total += checkVariants(t, fmt.Sprintf("random%d/loop%d/%v", seed, li, sync), prog, loop, 3, sync)
			}
		}
	}
	if total == 0 {
		t.Fatal("the random programs have no conflicts; the comparison is vacuous")
	}
}

// circuitPlan compiles a four-piece circuit whose shared and ghost node
// sets — the instances the copies' overlaps are cut from — have few spans
// (a small dense graph) or many (a large sparse one). Both saturate every
// cross-piece pair, so the two plans have the same shape.
func circuitPlan(t *testing.T, nodesPerPiece, wiresPerPiece int64) *cr.Compiled {
	t.Helper()
	a := circuit.Build(circuit.Config{Pieces: 4, NodesPerPiece: nodesPerPiece, WiresPerPiece: wiresPerPiece, PctLocal: 0.8, Iters: 3, Seed: 7})
	return compileApp(t, a.Prog, a.Loop, cr.Options{NumShards: 4})
}

// maxPairSpans is the largest span count among the plan's copy-pair overlaps.
func maxPairSpans(c *cr.Compiled) int {
	n := 0
	for _, op := range c.Body {
		if op.Copy != nil {
			for _, pr := range op.Copy.Pairs {
				n = max(n, pr.Overlap.NumSpans())
			}
		}
	}
	return n
}

// TestCleanPlanAllocatesNoGeometry is the allocation bound of the shallow
// race check: verifying a clean plan costs the same number of objects
// whether its index spaces have a handful of spans or hundreds (so no
// IndexSpace is built — the old enumeration allocated one per pair, more
// for more spans), and Check on it renders no witness at all.
func TestCleanPlanAllocatesNoGeometry(t *testing.T) {
	few, many := circuitPlan(t, 40, 600), circuitPlan(t, 2000, 8000)
	if f, m := maxPairSpans(few), maxPairSpans(many); f == 0 || m < 8*f {
		t.Fatalf("span counts %d and %d: the two plans do not differ enough in sparsity", f, m)
	}
	var reps [2]*verify.Report
	var allocs, checkAllocs [2]float64
	for i, plan := range []*cr.Compiled{few, many} {
		allocs[i] = testing.AllocsPerRun(5, func() {
			rep, err := verify.Verify(plan)
			if err != nil || !rep.OK() {
				t.Fatalf("verify: %v %v", err, rep)
			}
			reps[i] = rep
		})
		a, err := verify.Analyze(plan)
		if err != nil {
			t.Fatal(err)
		}
		checkAllocs[i] = testing.AllocsPerRun(5, func() { a.Check() })
	}
	if reps[0].Stats != reps[1].Stats {
		t.Fatalf("the two plans differ in shape, so their allocation counts are not comparable:\n few  %+v\n many %+v", reps[0].Stats, reps[1].Stats)
	}
	if reps[0].Stats.Conflicts < 100 {
		t.Fatalf("only %d conflicts: the bound is vacuous", reps[0].Stats.Conflicts)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Verify allocates %v objects with few spans and %v with many: something scales with the geometry", allocs[0], allocs[1])
	}
	// Check on a clean plan: the closure and the report — a fixed
	// handful, nothing per conflict and no strings.
	if checkAllocs[0] != checkAllocs[1] || checkAllocs[0] > 16 {
		t.Errorf("Check on a clean plan allocates %v and %v objects (%d conflicts); want the same fixed handful", checkAllocs[0], checkAllocs[1], reps[0].Stats.Conflicts)
	}
}
