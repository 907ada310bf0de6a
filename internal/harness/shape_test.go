package harness

import (
	"testing"

	"repro/internal/bench"
)

// TestFigureShapesAt64Nodes locks in the qualitative claims of each figure
// at a CI-friendly scale (64 nodes): control replication stays near-flat,
// the implicit runtime has collapsed, and the system orderings match the
// paper. Absolute values are covered by EXPERIMENTS.md; these assertions
// guard the shapes against regressions.
func TestFigureShapesAt64Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape regression sweep is slow")
	}
	type meas map[string]map[int]float64 // system -> nodes -> throughput/node
	run := func(name string, nodes []int) meas {
		t.Helper()
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out := meas{}
		for _, sys := range app.Systems {
			out[sys] = map[int]float64{}
			for _, n := range nodes {
				per, err := app.Measure(sys, n, app.Iters, bench.MeasureOpts{})
				if err != nil {
					t.Fatalf("%s/%s@%d: %v", name, sys, n, err)
				}
				out[sys][n] = app.UnitsPerNode / per.Seconds()
			}
		}
		return out
	}
	eff := func(m meas, sys string, n int) float64 { return m[sys][n] / m[sys][1] }

	t.Run("stencil", func(t *testing.T) {
		m := run("stencil", []int{1, 64})
		if e := eff(m, "regent-cr", 64); e < 0.97 {
			t.Errorf("CR efficiency at 64 = %.2f, want near 1", e)
		}
		if e := eff(m, "regent-nocr", 64); e > 0.6 {
			t.Errorf("non-CR efficiency at 64 = %.2f, should have collapsed", e)
		}
		if e := eff(m, "mpi", 64); e < 0.95 {
			t.Errorf("MPI efficiency at 64 = %.2f", e)
		}
		// CR and MPI comparable in absolute terms (within 5%).
		if r := m["regent-cr"][64] / m["mpi"][64]; r < 0.95 || r > 1.05 {
			t.Errorf("CR/MPI throughput ratio = %.2f, want ~1", r)
		}
	})

	t.Run("miniaero", func(t *testing.T) {
		m := run("miniaero", []int{1, 64})
		// Regent above both references (§5.2).
		if m["regent-cr"][64] <= m["mpi-kokkos-core"][64] {
			t.Error("Regent CR should out-perform MPI+Kokkos rank/core")
		}
		if m["regent-cr"][64] <= m["mpi-kokkos-node"][64] {
			t.Error("Regent CR should out-perform MPI+Kokkos rank/node")
		}
		// The Figure 7 crossover: rank/node converges down toward rank/core
		// (the paper's curves meet around 64-1024 nodes).
		ratio1 := m["mpi-kokkos-node"][1] / m["mpi-kokkos-core"][1]
		ratio64 := m["mpi-kokkos-node"][64] / m["mpi-kokkos-core"][64]
		if ratio1 < 1.15 {
			t.Errorf("rank/node should start well above rank/core (ratio %.2f)", ratio1)
		}
		if ratio64 > 1.10 {
			t.Errorf("rank/node should have converged most of the way to rank/core by 64 nodes (ratio %.2f)", ratio64)
		}
		if ratio64 >= ratio1-0.08 {
			t.Errorf("rank/node advantage should shrink with scale (%.2f -> %.2f)", ratio1, ratio64)
		}
	})

	t.Run("pennant", func(t *testing.T) {
		m := run("pennant", []int{1, 64})
		// Single node: MPI fastest (dedicated analysis core penalty, §5.3).
		if m["mpi"][1] <= m["regent-cr"][1] {
			t.Error("MPI should win at a single node")
		}
		// The gap closes at scale: CR within 10% of MPI at 64 nodes.
		if r := m["regent-cr"][64] / m["mpi"][64]; r < 0.90 {
			t.Errorf("CR/MPI ratio at 64 = %.2f, gap should be closing", r)
		}
		// Ordering at scale: CR eff > MPI eff > MPI+OpenMP eff.
		ecr, empi, eomp := eff(m, "regent-cr", 64), eff(m, "mpi", 64), eff(m, "mpi-openmp", 64)
		if !(ecr > empi && empi > eomp) {
			t.Errorf("efficiency ordering violated: CR %.2f, MPI %.2f, OpenMP %.2f", ecr, empi, eomp)
		}
	})

	t.Run("circuit", func(t *testing.T) {
		m := run("circuit", []int{1, 16, 64})
		if e := eff(m, "regent-cr", 64); e < 0.97 {
			t.Errorf("CR efficiency at 64 = %.2f", e)
		}
		// Non-CR still holds most of its throughput at 16 (paper: matches
		// "up to 16 nodes") but collapses by 64.
		if e := eff(m, "regent-nocr", 16); e < 0.5 {
			t.Errorf("non-CR at 16 nodes = %.2f, should still be partly alive", e)
		}
		if e := eff(m, "regent-nocr", 64); e > 0.2 {
			t.Errorf("non-CR at 64 nodes = %.2f, should have collapsed", e)
		}
	})
}

// TestTable1Shape guards the Table 1 shape: shallow grows with node count,
// circuit is the most expensive app, and everything stays far below
// application run times.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1Parallel([]int{16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]map[int]Table1Row{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[int]Table1Row{}
		}
		byApp[r.App][r.Nodes] = r
	}
	for app, m := range byApp {
		if m[64].FinalPairs <= m[16].FinalPairs {
			t.Errorf("%s: pairs should grow with node count (%d vs %d)", app, m[16].FinalPairs, m[64].FinalPairs)
		}
		// Pairs grow roughly linearly with nodes (O(1) per region, §3.3).
		growth := float64(m[64].FinalPairs) / float64(m[16].FinalPairs)
		if growth > 8 {
			t.Errorf("%s: pair growth %0.1fx for 4x nodes — not O(1) per region", app, growth)
		}
	}
	if byApp["circuit"][64].ShallowMs < byApp["stencil"][64].ShallowMs/4 {
		t.Error("circuit (irregular graph) should be among the most expensive shallow computations")
	}
}
