// PENNANT example: Lagrangian hydrodynamics with dynamic time stepping
// (paper §5.3) at laptop scale.
//
// Each cycle min-reduces a new dt across all zones through a dynamic
// collective whose result is a future-valued scalar (§4.4): shards
// contribute their zones' candidates without blocking, and the next
// cycle's point-advance tasks pick the value up as a scalar argument. The
// example runs a few cycles under control replication, prints the dt
// trajectory, and verifies bitwise agreement with sequential execution —
// including the scalar dt itself.
//
// Run with: go run ./examples/pennant
package main

import (
	"fmt"
	"log"

	"repro/internal/apps/pennant"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

func main() {
	const pieces = 4
	cfg := pennant.Config{Pieces: pieces, ZW: 6, ZH: 8, Iters: 5}

	ref := pennant.Build(cfg)
	seq := ir.ExecSequential(ref.Prog)

	app := pennant.Build(cfg)
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: pieces})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %d zones, %d points, %d pieces\n", app.Zones.Volume(), app.Points.Volume(), pieces)
	fmt.Println("compiled cycle:")
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			extra := ""
			if op.Launch.Reduce != nil {
				extra = fmt.Sprintf("  (min-reduce into scalar %q via dynamic collective)", op.Launch.Reduce.Into)
			}
			fmt.Printf("  %d: launch %s%s\n", i, op.Launch.Label, extra)
		case op.Copy != nil:
			fmt.Printf("  %d: %v\n", i, op.Copy)
		}
	}

	sim := realm.MustNewSim(realm.DefaultConfig(pieces))
	res, err := spmd.New(sim, app.Prog, ir.ExecReal, map[*ir.Loop]*cr.Compiled{app.Loop: plan}).Run()
	if err != nil {
		log.Fatal(err)
	}

	if err := progtest.Diff(seq, &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		log.Fatalf("CR diverged from sequential semantics:\n%v", err)
	}

	// Inspect the four-way shared piece-corner point.
	p := geometry.Pt2(cfg.ZW, cfg.ZH)
	fmt.Printf("\nafter %d cycles: dt = %.6g, corner point %v at (%.4f, %.4f) — bitwise identical to sequential ✓\n",
		cfg.Iters, res.Env["dt"], p,
		res.Stores[app.Points].Get(app.PX, p), res.Stores[app.Points].Get(app.PY, p))
	fmt.Printf("virtual elapsed %v, %d messages (halo positions + corner-force reductions + dt collectives)\n",
		res.Elapsed, res.Stats.Messages)
}
