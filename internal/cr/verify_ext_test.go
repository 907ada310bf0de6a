package cr_test

// The static verifier (internal/verify) closes the loop on the compiler:
// every compilation the cr tests exercise — the paper's example programs
// and all four evaluation applications — must produce a schedule whose
// cross-shard conflicts are fully ordered by the inserted copies and
// sync. This lives in an external test package because internal/verify
// imports cr.

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// verifyProgram certifies every compiled loop of the program: races,
// liveness, and the specialization tables, which must match an independent
// recomputation — what licenses the executor to instantiate shard plans
// from the shared capture instead of capturing per shard.
func verifyProgram(t *testing.T, prog *ir.Program, opts cr.Options) {
	t.Helper()
	plans, err := spmd.CompileAll(prog, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, s := range prog.Stmts {
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		suite, err := verify.Certify(plans[loop], false)
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		for _, rep := range suite.Reports {
			for _, f := range rep.Findings {
				t.Errorf("%s finding: %s", rep.Pass, f)
			}
			if rep.Pass == "races" && rep.Stats.Nodes == 0 {
				t.Fatal("verifier built an empty happens-before graph; the check is vacuous")
			}
		}
		if !suite.OK() {
			t.Fatalf("certifier rejected the compilation (%d findings)", suite.NumFindings())
		}
	}
}

// TestVerifyTestPrograms runs the verifier over every example program the
// compiler tests use, under both sync lowerings and with the placement
// optimizer both on and off.
func TestVerifyTestPrograms(t *testing.T) {
	progs := []struct {
		name string
		prog *ir.Program
	}{
		{"figure2", progtest.NewFigure2(48, 8, 3).Prog},
		{"scalarsum", progtest.NewScalarSum(48, 8).Prog},
		{"regionreduce", progtest.NewRegionReduce(24, 4, 3).Prog},
	}
	for _, tc := range progs {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, noOpt := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/noopt=%v", tc.name, sync, noOpt)
				t.Run(name, func(t *testing.T) {
					verifyProgram(t, tc.prog, cr.Options{NumShards: 4, Sync: sync, NoPlacementOpt: noOpt})
				})
			}
		}
	}
}

// TestVerifyApps verifies the compiled schedules of the four evaluation
// applications (stencil, miniaero, pennant, circuit) at small node
// counts: the acceptance bar for the whole verifier.
func TestVerifyApps(t *testing.T) {
	nodes := []int{2, 4}
	if testing.Short() {
		nodes = []int{2}
	}
	for _, app := range harness.Apps() {
		for _, n := range nodes {
			t.Run(fmt.Sprintf("%s/nodes=%d", app.Name, n), func(t *testing.T) {
				prog, _ := app.BuildProgram(n)
				for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
					verifyProgram(t, prog, cr.Options{NumShards: n, Sync: sync})
				}
			})
		}
	}
}
