// Pinned witnesses: every finding the essential sync-deletion mutants and the
// liveness miswirings of the four evaluation applications produce, recorded
// at the commit before the race check went shallow-first (PR 14). The
// checker now derives a witness's overlap, cardinality and field list only
// for the pairs it reports, so this golden is what keeps that text — and the
// whole Report JSON, by hash — byte-identical to the eager derivation.
//
// Regenerate (only when a witness change is intended) with
//
//	go test ./internal/verify/ -run TestMutantWitnessGolden -update
//
// This lives in an external test package because the app packages import
// internal/bench, which imports verify.
package verify_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/verify"
)

var updateGolden = flag.Bool("update", false, "regenerate the witness goldens under testdata/")

const witnessGoldenPath = "testdata/mutant_witness_golden.json"

// evalApps builds the four evaluation applications at their paper sizes.
var evalApps = []struct {
	name  string
	build func(pieces int) (*ir.Program, *ir.Loop)
}{
	{"stencil", func(n int) (*ir.Program, *ir.Loop) { a := stencil.Build(stencil.Default(n)); return a.Prog, a.Loop }},
	{"miniaero", func(n int) (*ir.Program, *ir.Loop) { a := miniaero.Build(miniaero.Default(n)); return a.Prog, a.Loop }},
	{"pennant", func(n int) (*ir.Program, *ir.Loop) { a := pennant.Build(pennant.Default(n)); return a.Prog, a.Loop }},
	{"circuit", func(n int) (*ir.Program, *ir.Loop) { a := circuit.Build(circuit.Default(n)); return a.Prog, a.Loop }},
}

// witnessProgram builds evalApps[i] for a witness golden: circuit at its
// correctness size, because at the paper size its sparse overlaps alone are
// 1 MB of witness text.
func witnessProgram(i, pieces int) (*ir.Program, *ir.Loop) {
	if evalApps[i].name == "circuit" {
		small := circuit.Build(circuit.Small(pieces))
		return small.Prog, small.Loop
	}
	return evalApps[i].build(pieces)
}

var syncModes = []cr.SyncMode{cr.PointToPoint, cr.BarrierSync}

func compileApp(t testing.TB, prog *ir.Program, loop *ir.Loop, o cr.Options) *cr.Compiled {
	t.Helper()
	c, err := cr.Compile(prog, loop, o)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// mutantWitness is one mutant's pinned outcome: the finding strings in
// report order and a hash of the report's JSON (which also covers Stats and
// the fields String does not print).
type mutantWitness struct {
	Findings   []string `json:"findings"`
	ReportHash string   `json:"report_sha256"`
}

func witnessOf(t *testing.T, rep *verify.Report) mutantWitness {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	w := mutantWitness{Findings: []string{}, ReportHash: hex.EncodeToString(sum[:])}
	for _, f := range rep.Findings {
		w.Findings = append(w.Findings, f.String())
	}
	return w
}

// forEachAppCell compiles the four evaluation applications, built by
// witnessProgram at pieces, under both lowerings with o's other options, and
// hands fn each plan with its cell's name prefix.
func forEachAppCell(t *testing.T, pieces int, o cr.Options, fn func(cell string, c *cr.Compiled)) {
	t.Helper()
	for i, app := range evalApps {
		prog, loop := witnessProgram(i, pieces)
		for _, sync := range syncModes {
			o.Sync = sync
			fn(fmt.Sprintf("%s/%v/", app.name, sync), compileApp(t, prog, loop, o))
		}
	}
}

func TestMutantWitnessGolden(t *testing.T) {
	const shards = 4
	got := map[string]mutantWitness{}
	forEachAppCell(t, shards, cr.Options{NumShards: shards}, func(cell string, c *cr.Compiled) {
		a, err := verify.Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		got[cell+"clean"] = witnessOf(t, a.Check())
		for _, m := range a.Mutations() {
			if m.Essential {
				got[cell+m.Name] = witnessOf(t, a.Check(m.Drop...))
			}
		}
		for _, m := range a.LivenessMutations() {
			got[cell+m.Name] = witnessOf(t, a.CheckLivenessMutated(m))
		}
	})

	checkWitnessGolden(t, witnessGoldenPath, got)
}

// readGolden returns the golden file at path, after checking it has as many
// entries as got; under -update it rewrites the file from got and returns
// nil.
func readGolden[T any](t *testing.T, path string, got map[string]T) map[string]T {
	t.Helper()
	if *updateGolden {
		js, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d entries, golden has %d", len(got), len(want))
	}
	return want
}

// checkWitnessGolden compares the witnesses with the golden file at path,
// or rewrites it under -update.
func checkWitnessGolden(t *testing.T, path string, got map[string]mutantWitness) {
	t.Helper()
	want := readGolden(t, path, got)
	if want == nil {
		return
	}
	findings := 0
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in the golden but no longer enumerated", name)
			continue
		}
		findings += len(g.Findings)
		if len(g.Findings) != len(w.Findings) {
			t.Errorf("%s: %d findings, golden has %d", name, len(g.Findings), len(w.Findings))
			continue
		}
		for i := range w.Findings {
			if g.Findings[i] != w.Findings[i] {
				t.Errorf("%s finding %d:\n got  %s\n want %s", name, i, g.Findings[i], w.Findings[i])
				break
			}
		}
		if g.ReportHash != w.ReportHash {
			t.Errorf("%s: report JSON hash %s, golden %s", name, g.ReportHash, w.ReportHash)
		}
	}
	if findings == 0 {
		t.Fatal("the golden pins no finding: the test is vacuous")
	}
}
