package baseline

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/realm"
)

func ringNeighbors(nodes int, bytes int64) func(int) []Neighbor {
	return func(n int) []Neighbor {
		if nodes == 1 {
			return nil
		}
		return []Neighbor{
			{Node: (n + 1) % nodes, Bytes: bytes},
			{Node: (n - 1 + nodes) % nodes, Bytes: bytes},
		}
	}
}

func TestBaselineSingleNodeIsKernelBound(t *testing.T) {
	sim := realm.MustNewSim(realm.DefaultConfig(1))
	res, err := Run(sim, Spec{
		Nodes: 1, Iters: 5, RanksPerNode: 1,
		KernelTime: realm.Milliseconds(10),
		Neighbors:  ringNeighbors(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	per, err := res.PerIteration(1)
	if err != nil {
		t.Fatal(err)
	}
	if per != realm.Milliseconds(10) {
		t.Errorf("per iteration = %v, want 10ms", per)
	}
}

func TestBaselineHaloExchangeSynchronizes(t *testing.T) {
	sim := realm.MustNewSim(realm.DefaultConfig(4))
	res, err := Run(sim, Spec{
		Nodes: 4, Iters: 6, RanksPerNode: 1,
		KernelTime: realm.Milliseconds(5),
		Neighbors:  ringNeighbors(4, 1<<16),
	})
	if err != nil {
		t.Fatal(err)
	}
	per, err := res.PerIteration(1)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel plus at least one message transfer time.
	if per <= realm.Milliseconds(5) {
		t.Errorf("per iteration %v should exceed pure kernel time", per)
	}
	if per > realm.Milliseconds(6) {
		t.Errorf("per iteration %v should stay near kernel time with small halos", per)
	}
	// Iteration times strictly increase.
	for i := 1; i < len(res.IterTimes); i++ {
		if res.IterTimes[i] <= res.IterTimes[i-1] {
			t.Fatalf("iteration times not increasing: %v", res.IterTimes)
		}
	}
}

func TestBaselineRankPerCoreCostsMoreMessages(t *testing.T) {
	run := func(rpn int) realm.Time {
		sim := realm.MustNewSim(realm.DefaultConfig(4))
		res, err := Run(sim, Spec{
			Nodes: 4, Iters: 6, RanksPerNode: rpn,
			KernelTime:    realm.Milliseconds(2),
			PerMessageCPU: realm.Microseconds(5),
			Neighbors:     ringNeighbors(4, 1<<14),
		})
		if err != nil {
			t.Fatal(err)
		}
		per, err := res.PerIteration(1)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	if run(12) <= run(1) {
		t.Error("rank-per-core should pay more per-message overhead than rank-per-node")
	}
}

func TestBaselineAllreduceAddsLatency(t *testing.T) {
	run := func(allreduce bool) realm.Time {
		sim := realm.MustNewSim(realm.DefaultConfig(8))
		res, err := Run(sim, Spec{
			Nodes: 8, Iters: 6, RanksPerNode: 1,
			KernelTime: realm.Milliseconds(1),
			Neighbors:  ringNeighbors(8, 1<<10),
			Allreduce:  allreduce,
		})
		if err != nil {
			t.Fatal(err)
		}
		per, err := res.PerIteration(1)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	if run(true) <= run(false) {
		t.Error("allreduce should add per-iteration latency")
	}
}

func TestBaselineDeterministic(t *testing.T) {
	run := func() realm.Time {
		sim := realm.MustNewSim(realm.DefaultConfig(4))
		res, err := Run(sim, Spec{
			Nodes: 4, Iters: 5, RanksPerNode: 2,
			KernelTime: realm.Milliseconds(3),
			Neighbors:  ringNeighbors(4, 1<<12),
			Allreduce:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	first := run()
	for i := 0; i < 3; i++ {
		if run() != first {
			t.Fatal("non-deterministic baseline run")
		}
	}
}

func TestBaselineRejectsOversizedSpec(t *testing.T) {
	sim := realm.MustNewSim(realm.DefaultConfig(2))
	_, err := Run(sim, Spec{Nodes: 4, Iters: 1, Neighbors: ringNeighbors(4, 0)})
	if err == nil {
		t.Error("expected error for spec larger than machine")
	}
}

// TestBaselineRejectsNeighborOutsideSpec: a neighbor outside [0, Nodes) is
// an error before anything runs (it used to index out of range).
func TestBaselineRejectsNeighborOutsideSpec(t *testing.T) {
	for _, bad := range []int{5, 2, -1} {
		sim := realm.MustNewSim(realm.DefaultConfig(4))
		_, err := Run(sim, Spec{Nodes: 2, Iters: 2, Neighbors: func(int) []Neighbor {
			return []Neighbor{{Node: bad, Bytes: 8}}
		}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("neighbor %d", bad)) {
			t.Errorf("neighbor %d of a 2-node spec: err = %v", bad, err)
		}
	}
}

// TestBaselineEvaluatesNeighborsOncePerNode: Spec.Neighbors may allocate
// (the apps' closures do), so Run calls it once per node, not once per
// node per iteration.
func TestBaselineEvaluatesNeighborsOncePerNode(t *testing.T) {
	calls := make([]int, 4)
	ring := ringNeighbors(4, 1000)
	sim := realm.MustNewSim(realm.DefaultConfig(4))
	_, err := Run(sim, Spec{Nodes: 4, Iters: 6, RanksPerNode: 2, KernelTime: realm.Milliseconds(1),
		Neighbors: func(n int) []Neighbor { calls[n]++; return ring(n) }})
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range calls {
		if c != 1 {
			t.Errorf("Neighbors(%d) called %d times over 6 iterations, want 1", n, c)
		}
	}
}
