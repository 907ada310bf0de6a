package pennant_test

import (
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/bench"
	"repro/internal/harness"
)

func TestMeasureAllSystems(t *testing.T) {
	// Through harness.App, as the figure sweep measures it (hence the
	// external test package: harness imports this one).
	app, err := harness.AppByName("pennant")
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range pennant.Systems {
		per, err := app.Measure(sys, 4, 6, bench.MeasureOpts{})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if per <= 0 {
			t.Errorf("%s: non-positive per-cycle time", sys)
		}
	}
}
