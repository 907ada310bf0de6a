package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

// benchPlans compiles the four applications at the shard counts the certify
// benchmark workload plans prunes at (stencil@64, miniaero@8, pennant@64,
// circuit@16), paper size, point-to-point sync, aggregated if agg.
func benchPlans(b *testing.B, agg bool) []namedPlan {
	b.Helper()
	shards := map[string]int{"stencil": 64, "miniaero": 8, "pennant": 64, "circuit": 16}
	var out []namedPlan
	for _, app := range evalApps {
		n := shards[app.name]
		prog, loop := app.build(n)
		out = append(out, namedPlan{app.name, compileApp(b, prog, loop, cr.Options{NumShards: n, Agg: agg})})
	}
	return out
}

// BenchmarkPlanPrune is the certify workload's prune set: one PlanPrune per
// application per iteration.
func BenchmarkPlanPrune(b *testing.B) {
	for _, p := range benchPlans(b, false) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, rep, err := verify.PlanPrune(p.c); err != nil || !rep.OK() {
					b.Fatalf("PlanPrune: %v %v", err, rep)
				}
			}
		})
	}
}

// BenchmarkCertify is the whole certifier on the same sizes, aggregated: one
// Certify with prune per application per iteration, each from the
// unpruned plan.
func BenchmarkCertify(b *testing.B) {
	for _, p := range benchPlans(b, true) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.c.Prune = nil
				if suite, err := verify.Certify(p.c, true); err != nil {
					b.Fatal(err)
				} else if !suite.OK() {
					b.Fatalf("Certify: %d findings", suite.NumFindings())
				}
			}
		})
	}
}

// BenchmarkAnalyze is one replay and conflict enumeration of the unpruned
// schedule per application per iteration: what Verify, CheckAgg and the
// mutant cells pay before their first check.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range benchPlans(b, false) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := verify.Analyze(p.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify is the certify workload's check set: Verify of the plan
// and CheckAgg of its aggregated form, per application and lowering at 64
// shards, paper size.
func BenchmarkVerify(b *testing.B) {
	const shards = 64
	for _, app := range evalApps {
		prog, loop := app.build(shards)
		for _, sync := range syncModes {
			plan := compileApp(b, prog, loop, cr.Options{NumShards: shards, Sync: sync})
			agg := compileApp(b, prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: true})
			b.Run(fmt.Sprintf("%s/%v", app.name, sync), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if rep, err := verify.Verify(plan); err != nil || !rep.OK() {
						b.Fatalf("Verify: %v %v", err, rep)
					}
					if rep, err := verify.CheckAgg(agg); err != nil || !rep.OK() {
						b.Fatalf("CheckAgg: %v %v", err, rep)
					}
				}
			})
		}
	}
}
