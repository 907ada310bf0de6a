package verify_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

// TestSuccessorTableMatchesEdges: every walk of a happens-before graph goes
// through its successor table, so the table must list each node's
// successors exactly as the edge list does, in insertion order — on the
// four applications under both lowerings with aggregation off and on, and
// on random DAGs — as built and with a random drop set filtered out.
func TestSuccessorTableMatchesEdges(t *testing.T) {
	if verify.EdgeBytes != 20 {
		t.Errorf("an edge takes %d bytes, want 20", verify.EdgeBytes)
	}
	rng := rand.New(rand.NewSource(38))
	for i, app := range evalApps {
		prog, loop := witnessProgram(i, 8)
		for _, sync := range syncModes {
			for _, agg := range []bool{false, true} {
				a, err := verify.Analyze(compileApp(t, prog, loop, cr.Options{NumShards: 4, Sync: sync, Agg: agg}))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.SuccessorTableMismatch(rng); err != nil {
					t.Errorf("%s %v agg=%v: %v", app.name, sync, agg, err)
				}
			}
		}
	}
	for _, n := range []int{2, 65, 300} {
		for _, density := range []int{1, 4, 9} {
			if err := verify.RandomDAGSuccessorMismatch(rng, n, density*n); err != nil {
				t.Errorf("random DAG of %d nodes, %d edges per node: %v", n, density, err)
			}
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// verifyAllocBudget is Verify + CheckAgg's allocation on miniaero at 64
// shards, point-to-point, as measured when the happens-before storage went
// flat (16.8 MiB; 38.6 MiB before), plus 25 %.
const verifyAllocBudget = 21 << 20

// TestVerifyAllocBudget pins the bytes Verify and CheckAgg allocate on the
// certify workload's heaviest check cell, so the graph's storage cannot
// quietly start regrowing by copying again.
func TestVerifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	const shards = 64
	app := evalApps[1] // miniaero
	prog, loop := app.build(shards)
	plan := compileApp(t, prog, loop, cr.Options{NumShards: shards})
	agg := compileApp(t, prog, loop, cr.Options{NumShards: shards, Agg: true})
	run := func() {
		if rep, err := verify.Verify(plan); err != nil || !rep.OK() {
			t.Fatalf("Verify: %v %v", err, rep)
		}
		if rep, err := verify.CheckAgg(agg); err != nil || !rep.OK() {
			t.Fatalf("CheckAgg: %v %v", err, rep)
		}
	}
	run() // warm whatever is built once per process
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Verify + CheckAgg on %s@%d allocate %.1f MiB", app.name, shards, float64(got)/(1<<20))
	if got > verifyAllocBudget {
		t.Errorf("Verify + CheckAgg allocate %.1f MiB, over the %d MiB budget", float64(got)/(1<<20), verifyAllocBudget>>20)
	}
}
