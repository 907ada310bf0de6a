package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

// TestNilLoopIsAnError: every entry point that takes a compiled loop
// answers nil with an error, never a nil dereference.
func TestNilLoopIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Analyze", func() error { _, err := verify.Analyze(nil); return err }},
		{"AnalyzePruned", func() error { _, err := verify.AnalyzePruned(nil, nil); return err }},
		{"Verify", func() error { _, err := verify.Verify(nil); return err }},
		{"CheckSpec", func() error { return verify.CheckSpec(nil) }},
		{"CheckAggTables", func() error { return verify.CheckAggTables(nil) }},
		{"CheckAgg", func() error { _, err := verify.CheckAgg(nil); return err }},
		{"PlanPrune", func() error { _, _, err := verify.PlanPrune(nil); return err }},
		{"Certify/prune=false", func() error { _, err := verify.Certify(nil, false); return err }},
		{"Certify/prune=true", func() error { _, err := verify.Certify(nil, true); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil || err.Error() != "verify: nil compiled loop" {
				t.Errorf("got %v, want verify: nil compiled loop", err)
			}
		})
	}
}

// TestCertifyAnalysesOnce pins the certifier's work under agg and prune,
// on the four apps × both lowerings at their witness sizes. Certify costs
// exactly what PlanPrune on the same plan costs: one base analysis, whose
// races and liveness verdicts are the agg report's, the prune planning's
// and (were the prune refused) the suite's, and one build of the final
// schedule, whose liveness report is the suite's. PlanPrune's own counts
// are pinned: builds and closures are 1 for the base, 1 per certification
// and per war-obligation round, 1 for the dead-init coverage and 1 for
// the final schedule; liveness passes are the base's, the ordered
// certifications' and the final schedule's.
func TestCertifyAnalysesOnce(t *testing.T) {
	want := map[string]verify.Work{
		"stencil/p2p":      {Builds: 33, Closures: 33, Liveness: 3, Certifications: 28},
		"miniaero/p2p":     {Builds: 73, Closures: 73, Liveness: 14, Certifications: 68},
		"pennant/p2p":      {Builds: 24, Closures: 24, Liveness: 4, Certifications: 18},
		"circuit/p2p":      {Builds: 177, Closures: 177, Liveness: 40, Certifications: 171},
		"stencil/barrier":  {Builds: 3, Closures: 3, Liveness: 2, Certifications: 0},
		"miniaero/barrier": {Builds: 3, Closures: 3, Liveness: 2, Certifications: 0},
		"pennant/barrier":  {Builds: 31, Closures: 31, Liveness: 12, Certifications: 28},
		"circuit/barrier":  {Builds: 60, Closures: 60, Liveness: 19, Certifications: 57},
	}
	for _, sync := range syncModes {
		for i, app := range evalApps {
			prog, loop := witnessProgram(i, 8)
			c := compileApp(t, prog, loop, cr.Options{NumShards: 4, Sync: sync, Agg: true})
			name := fmt.Sprintf("%s/%v", app.name, sync)
			plan := verify.WorkOf(func() {
				if _, rep, err := verify.PlanPrune(c); err != nil || !rep.OK() {
					t.Fatalf("%s: PlanPrune: %v %v", name, err, rep)
				}
			})
			cert := verify.WorkOf(func() {
				if suite, err := verify.Certify(c, true); err != nil || !suite.OK() || c.Prune == nil {
					t.Fatalf("%s: Certify: %v", name, err)
				}
			})
			if cert != plan {
				t.Errorf("%s: Certify did %+v, PlanPrune %+v", name, cert, plan)
			}
			if w := want[name]; plan != w {
				t.Errorf("%s: PlanPrune did %+v, want %+v", name, plan, w)
			}
		}
	}
}
