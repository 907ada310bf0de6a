package stencil_test

import (
	"testing"

	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/harness"
)

// figure is the app as the figure sweep measures it (an external test
// package: harness imports this one).
func figure(t *testing.T) harness.App {
	app, err := harness.AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestMeasureAllSystemsSmallScale(t *testing.T) {
	for _, sys := range stencil.Systems {
		per, err := figure(t).Measure(sys, 4, 6, bench.MeasureOpts{})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if per <= 0 {
			t.Errorf("%s: non-positive per-iteration time", sys)
		}
	}
}

func TestWeakScalingShape(t *testing.T) {
	// The headline Figure 6 property at small scale: CR throughput/node
	// stays near flat from 1 to 8 nodes while the implicit runtime's
	// degrades measurably by 8 nodes under the calibrated overheads.
	if testing.Short() {
		t.Skip("weak scaling shape test is slow")
	}
	perNode := func(sys string, nodes int) float64 {
		per, err := figure(t).Measure(sys, nodes, 8, bench.MeasureOpts{})
		if err != nil {
			t.Fatal(err)
		}
		app := stencil.Build(stencil.Default(nodes))
		return app.PointsPerNode() / per.Seconds()
	}
	cr1 := perNode("regent-cr", 1)
	cr8 := perNode("regent-cr", 8)
	if eff := cr8 / cr1; eff < 0.9 {
		t.Errorf("CR efficiency at 8 nodes = %.2f, want >= 0.9", eff)
	}
	mpi8 := perNode("mpi", 8)
	if mpi8 < 0.5*cr8 || mpi8 > 2*cr8 {
		t.Errorf("MPI throughput %.3g should be comparable to CR %.3g", mpi8, cr8)
	}
}
