// Static certification of the evaluation apps' coalesced exchange plans:
// verify.CheckAgg — the table recomputation plus race and liveness passes
// over the rebuilt AGGREGATED happens-before graph — must certify all four
// applications under both sync lowerings, at both the standard and the
// overdecomposed scale. This is the license the bench layer demands before
// running any -agg cell; certifying it here over the real apps (not just
// the verify package's small fixtures) closes the loop between the
// certifier and the schedules the sweep actually runs.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
)

func TestCheckAggCertifiesApps(t *testing.T) {
	const nodes = 4
	for _, app := range pruneApps {
		for _, over := range []int{1, 2} {
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				t.Run(fmt.Sprintf("%s/x%d/%v", app.name, over, sync), func(t *testing.T) {
					// The runner refuses to run a schedule with any finding.
					cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Agg: true}, Nodes: nodes, Sync: sync, Mode: ir.ExecModeled}
					res := must(t)(bench.RunCR(app.build(over*nodes), cfg))
					var groups, multi int64
					for _, rep := range res.Suite.Reports {
						if rep.Pass != "agg" {
							continue
						}
						if rep.Stats.Nodes == 0 || rep.Stats.Conflicts == 0 {
							t.Errorf("vacuous certification: %+v", rep.Stats)
						}
						groups += rep.Counters["agg_groups"]
						multi += rep.Counters["multi_member_groups"]
					}
					if groups == 0 {
						t.Error("no aggregation groups certified")
					}
					// Overdecomposition is what gives the groups multiple
					// members; the certifier must see the merges the
					// executor performs.
					if over == 2 && multi == 0 {
						t.Error("no multi-member groups at 2x overdecomposition")
					}
				})
			}
		}
	}
}
