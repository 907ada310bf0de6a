// Stencil example: the PRK 2-D star stencil (paper §5.1) at laptop scale.
//
// It builds the hierarchically partitioned stencil program (private /
// shared / ghost bands, §4.5), shows the compiled communication plan (only
// the boundary bands are exchanged — the private interior provably needs
// no copies), runs it under control replication on a simulated 4-node
// machine with real data, verifies the result against the sequential
// semantics, and finishes with a miniature weak-scaling comparison of all
// four Figure 6 systems.
//
// Run with: go run ./examples/stencil
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

func main() {
	const nodes = 4
	cfg := stencil.Config{Nodes: nodes, TileW: 32, TileH: 32, Radius: 2, Iters: 5}

	// Sequential reference.
	ref := stencil.Build(cfg)
	seq := ir.ExecSequential(ref.Prog)

	// Compile and inspect the communication plan.
	app := stencil.Build(cfg)
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: nodes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %dx%d over %dx%d tiles, radius %d\n", app.Gx*cfg.TileW, app.Gy*cfg.TileH, app.Gx, app.Gy, cfg.Radius)
	fmt.Println("compiled loop body:")
	var haloVolume int64
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			fmt.Printf("  %d: launch %s\n", i, op.Launch.Label)
		case op.Copy != nil:
			fmt.Printf("  %d: %v\n", i, op.Copy)
			for _, pr := range op.Copy.Pairs {
				haloVolume += pr.Overlap.Volume()
			}
		}
	}
	total := app.In.Volume()
	fmt.Printf("halo exchange: %d of %d grid points per iteration (%.2f%%) — the private interior moves nothing\n\n",
		haloVolume, total, 100*float64(haloVolume)/float64(total))

	// Execute for real on the simulated machine.
	sim := realm.MustNewSim(realm.DefaultConfig(nodes))
	res, err := spmd.New(sim, app.Prog, ir.ExecReal, map[*ir.Loop]*cr.Compiled{app.Loop: plan}).Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := progtest.Diff(seq, &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		log.Fatalf("CR result diverged from sequential semantics:\n%v", err)
	}
	center := geometry.Pt2(app.Gx*cfg.TileW/2, app.Gy*cfg.TileH/2)
	fmt.Printf("verified against sequential execution ✓  (out[%v] = %.4f after %d iterations)\n\n",
		center, res.Stores[app.Out].Get(app.XOut, center), cfg.Iters)

	// Miniature Figure 6: weak scaling at paper problem sizes (modeled
	// kernels, real control plane).
	fmt.Println("weak scaling, throughput per node (10^6 points/s), paper-size tiles:")
	fmt.Printf("%-8s %12s %12s %12s %12s\n", "nodes", "regent-cr", "regent-nocr", "mpi", "mpi-openmp")
	fig6, err := harness.AppByName("stencil")
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		fmt.Printf("%-8d", n)
		for _, sys := range fig6.Systems {
			per, err := fig6.Measure(sys, n, 8, bench.MeasureOpts{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12.1f", 40000.0*40000/per.Seconds()/1e6)
		}
		fmt.Println()
	}
}
