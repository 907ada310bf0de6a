// Quickstart: the paper's running example (Figure 2) end to end.
//
// It builds the implicitly parallel two-phase program over regions A and B
// — a loop alternating TF(PB[i], PA[i]) and TG(PA[j], QB[j]) where QB is an
// aliased image partition of B — then:
//
//  1. runs it sequentially (the semantics reference);
//  2. runs it on the implicit Legion-like runtime (dynamic dependence
//     analysis on a central control thread);
//  3. control-replicates the loop and runs the SPMD shards on a simulated
//     4-node machine;
//
// and shows that all three produce identical region contents, while the
// compiled plan contains exactly the copy the paper derives (Figure 4b):
// PB -> QB after the first launch, and nothing for the disjoint PA.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
	"repro/internal/spmd"
)

func buildProgram(n, nt int64, trip int) (*ir.Program, *ir.Loop, *region.Region, region.FieldID) {
	p := ir.NewProgram("figure2")
	fs := region.NewFieldSpace("val")
	val := fs.Field("val")

	// Regions A and B over the same index space (Figure 2, lines 16-19).
	a := p.Tree.NewRegion("A", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	b := p.Tree.NewRegion("B", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[a] = fs
	p.FieldSpaces[b] = fs

	// Partitions: disjoint blocks PA and PB, and the aliased image QB
	// through h(j) = j+3 mod n (lines 20-22).
	pa := a.Block("PA", nt)
	pb := b.Block("PB", nt)
	shift := int64(3)
	qb := region.Image(b, pb, "QB", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + shift) % n)}
	})

	// Tasks TF and TG with their privileges (lines 1-13).
	tf := &ir.TaskDecl{
		Name: "TF",
		Params: []ir.Param{
			{Name: "B", Priv: ir.PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "A", Priv: ir.PrivRead, Fields: []region.FieldID{val}},
		},
		// A kernel takes one accessor per field at entry — that is where the
		// declared privilege is checked — and then walks its region row by
		// row; a row is the store's own memory.
		Kernel: func(tc *ir.TaskCtx) {
			bOut, aIn := tc.Writer(val, 0, 1), tc.Reader(val, 1, 1)
			tc.Rows(0, func(row ir.Row) {
				bs := bOut.Row(row)
				for i := range bs {
					bs[i] = aIn.Get(row.Point(i)) + 1 // B[i] = F(A[i])
				}
			})
		},
		CostPerElem: 100,
	}
	tg := &ir.TaskDecl{
		Name: "TG",
		Params: []ir.Param{
			{Name: "A", Priv: ir.PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "B", Priv: ir.PrivRead, Fields: []region.FieldID{val}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			aOut, bIn := tc.Writer(val, 0, 1), tc.Reader(val, 1, 1)
			tc.Rows(0, func(row ir.Row) {
				as := aOut.Row(row)
				for i := range as {
					h := geometry.Pt1((row.First.X() + int64(i) + shift) % n)
					as[i] = 2 * bIn.Get(h) // A[j] = G(B[h(j)])
				}
			})
		},
		CostPerElem: 100,
	}

	// The main simulation loop (lines 23-30).
	loop := &ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
		&ir.Launch{Task: tf, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pb}, {Part: pa}}},
		&ir.Launch{Task: tg, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pa}, {Part: qb}}},
	}}
	p.Add(
		&ir.FillFunc{Target: a, Field: val, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Fill{Target: b, Field: val, Value: 0},
		loop,
	)
	return p, loop, a, val
}

func main() {
	const (
		n     = 64
		nt    = 8
		trip  = 4
		nodes = 4
	)

	// 1. Sequential reference.
	progSeq, _, aSeq, val := buildProgram(n, nt, trip)
	seq := ir.ExecSequential(progSeq)
	fmt.Printf("sequential:  A[0..5] =")
	for i := int64(0); i < 6; i++ {
		fmt.Printf(" %g", seq.Stores[aSeq].Get(val, geometry.Pt1(i)))
	}
	fmt.Println()

	// 2. Implicit parallel execution: a single control thread performs
	// dynamic dependence analysis and launches tasks across the nodes.
	progImp, _, _, _ := buildProgram(n, nt, trip)
	simImp := realm.MustNewSim(realm.DefaultConfig(nodes))
	resImp, err := rt.New(simImp, progImp, ir.ExecReal).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("implicit:    elapsed %v virtual, %d tasks, %d messages\n",
		resImp.Elapsed, resImp.Stats.TasksRun, resImp.Stats.Messages)

	// 3. Control replication: compile the loop and run SPMD shards.
	progCR, loopCR, _, _ := buildProgram(n, nt, trip)
	plan, err := cr.Compile(progCR, loopCR, cr.Options{NumShards: nodes, Sync: cr.PointToPoint})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncontrol-replicated loop body (compare Figure 4b):")
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			fmt.Printf("  %d: launch %s over %d points\n", i, op.Launch.Task.Name, len(op.Launch.Domain))
		case op.Copy != nil:
			fmt.Printf("  %d: %v\n", i, op.Copy)
		}
	}
	fmt.Printf("shards: %d, each owning %d launch points\n\n", plan.Opts.NumShards, len(plan.Owned[0]))

	simCR := realm.MustNewSim(realm.DefaultConfig(nodes))
	resCR, err := spmd.New(simCR, progCR, ir.ExecReal, map[*ir.Loop]*cr.Compiled{loopCR: plan}).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spmd (CR):   elapsed %v virtual, %d tasks, %d messages\n",
		resCR.Elapsed, resCR.Stats.TasksRun, resCR.Stats.Messages)

	// All three executions must agree exactly.
	if err := progtest.Diff(seq, &ir.SeqResult{Stores: resImp.Stores, Env: resImp.Env}); err != nil {
		log.Fatalf("implicit execution diverged from sequential semantics:\n%v", err)
	}
	if err := progtest.Diff(seq, &ir.SeqResult{Stores: resCR.Stores, Env: resCR.Env}); err != nil {
		log.Fatalf("control-replicated execution diverged from sequential semantics:\n%v", err)
	}
	fmt.Println("\nall three executions produced bitwise-identical region contents ✓")
}
