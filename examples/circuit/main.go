// Circuit example: the sparse circuit simulation (paper §5.4) at laptop
// scale, demonstrating region reductions under control replication.
//
// The distribute-charge phase sum-reduces wire currents into private,
// shared, and ghost circuit nodes; the compiler turns those into reduction
// copies that fold each piece's temporary reduction instance into the
// owning instances in deterministic order (§4.3). The example runs the
// same graph implicitly, control-replicated, and sequentially, checks all
// three agree bitwise, and compares the per-iteration virtual times.
//
// Run with: go run ./examples/circuit
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/circuit"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/rt"
	"repro/internal/spmd"
)

func main() {
	const pieces = 4
	cfg := circuit.Small(pieces)
	cfg.Iters = 6

	ref := circuit.Build(cfg)
	seq := ir.ExecSequential(ref.Prog)

	// How much of the graph is communication?
	var ghost, shared int64
	for i := int64(0); i < pieces; i++ {
		ghost += ref.GhostN.Sub1(i).Volume()
		shared += ref.ShrN.Sub1(i).Volume()
	}
	fmt.Printf("graph: %d nodes, %d wires across %d pieces; %d shared + %d ghost node references\n",
		ref.Nodes.Volume(), ref.Wires.Volume(), pieces, shared, ghost)

	// Control-replicated execution.
	app := circuit.Build(cfg)
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: pieces})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompiled loop body (note the reduction copies for distribute_charge):")
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			fmt.Printf("  %d: launch %s\n", i, op.Launch.Label)
		case op.Copy != nil:
			fmt.Printf("  %d: %v\n", i, op.Copy)
		}
	}

	simCR := realm.MustNewSim(realm.DefaultConfig(pieces))
	resCR, err := spmd.New(simCR, app.Prog, ir.ExecReal, map[*ir.Loop]*cr.Compiled{app.Loop: plan}).Run()
	if err != nil {
		log.Fatal(err)
	}

	// Implicit execution of the same graph.
	app2 := circuit.Build(cfg)
	simImp := realm.MustNewSim(realm.DefaultConfig(pieces))
	resImp, err := rt.New(simImp, app2.Prog, ir.ExecReal).Run()
	if err != nil {
		log.Fatal(err)
	}

	if err := progtest.Diff(seq, &ir.SeqResult{Stores: resCR.Stores, Env: resCR.Env}); err != nil {
		log.Fatalf("CR diverged from sequential semantics:\n%v", err)
	}
	if err := progtest.Diff(seq, &ir.SeqResult{Stores: resImp.Stores, Env: resImp.Env}); err != nil {
		log.Fatalf("implicit execution diverged from sequential semantics:\n%v", err)
	}
	v0 := seq.Stores[ref.Nodes].Get(ref.Voltage, geometry.Pt1(0))
	fmt.Printf("\nall executions agree bitwise ✓  (voltage[0] = %.6f after %d steps)\n", v0, cfg.Iters)
	fmt.Printf("virtual time: CR %v vs implicit %v (%d vs %d messages)\n",
		resCR.Elapsed, resImp.Elapsed, resCR.Stats.Messages, resImp.Stats.Messages)
}
