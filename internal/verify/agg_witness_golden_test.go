// Pinned witnesses of the aggregated schedule: the CheckAgg report (by JSON
// hash) and every finding the merged-precondition deletions and the liveness
// miswirings produce on the four evaluation applications at 2x
// overdecomposition, recorded at the commit before the happens-before
// builder began walking cr's exchange step lists (PR 16), when the
// aggregated graph still had a builder of its own. It is what keeps the
// aggregated graph's node numbering, edge order and witness text
// byte-identical to that builder's.
//
// Regenerate (only when a witness change is intended) with
//
//	go test ./internal/verify/ -run TestAggWitnessGolden -update
package verify_test

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

const aggWitnessGoldenPath = "testdata/agg_witness_golden.json"

func findingStrings(rep *verify.Report) []string {
	out := []string{}
	for _, f := range rep.Findings {
		out = append(out, f.String())
	}
	return out
}

func TestAggWitnessGolden(t *testing.T) {
	const shards, pieces = 4, 8
	got := map[string]mutantWitness{}
	forEachAppCell(t, pieces, cr.Options{NumShards: shards, Agg: true}, func(cell string, c *cr.Compiled) {
		rep, err := verify.CheckAgg(c)
		if err != nil {
			t.Fatal(err)
		}
		got[cell+"check-agg"] = witnessOf(t, rep)
		a, err := verify.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range a.Mutations() {
			got[cell+m.Name] = mutantWitness{Findings: findingStrings(a.Check(m.Drop...))}
		}
		for _, m := range a.LivenessMutations() {
			got[cell+m.Name] = mutantWitness{Findings: findingStrings(a.CheckLivenessMutated(m))}
		}
	})

	checkWitnessGolden(t, aggWitnessGoldenPath, got)
}
