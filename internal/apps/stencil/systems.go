package stencil

import (
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
)

// Systems lists the Figure 6 series.
var Systems = []string{"regent-cr", "regent-nocr", "mpi", "mpi-openmp"}

// Program builds the program both Regent systems run at a node count, and
// the tuning they run it under. iters > 0 replaces the configuration's
// iteration count; native picks the tile sized for real kernels.
func Program(nodes, iters int, native bool) (*ir.Program, *ir.Loop, bench.Tuning) {
	cfg := Default(nodes)
	if native {
		cfg = Native(nodes)
	}
	if iters > 0 {
		cfg.Iters = iters
	}
	app := Build(cfg)
	return app.Prog, app.Loop, bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
}

// Baseline runs the hand-written halo-exchange reference, which follows the
// PRK structure: one rank per core for "mpi", one threaded rank per node
// with a serialized pack/exchange section for "mpi-openmp".
func Baseline(system string, nodes, iters int) (realm.Time, error) {
	cfg, openmp := Default(nodes), system == "mpi-openmp"
	if iters > 0 {
		cfg.Iters = iters
	}
	gx, gy := Factor2(cfg.Nodes)
	machine := realm.DefaultConfig(cfg.Nodes)
	cores := machine.CoresPerNode
	vol := float64(cfg.TileW * cfg.TileH)
	kernel := realm.Time(vol * (stencilCostPerPoint + addCostPerPoint) / float64(cores))

	spec := baseline.Spec{
		Nodes:        cfg.Nodes,
		Iters:        cfg.Iters,
		RanksPerNode: cores,
		KernelTime:   kernel,
		Neighbors:    gridNeighbors(gx, gy, cfg.TileW, cfg.TileH, cfg.Radius),
	}
	if openmp {
		spec.RanksPerNode = 1
		// The threaded variant serializes halo pack/unpack on one core.
		haloBytes := 2 * cfg.Radius * (cfg.TileW + cfg.TileH) * 8
		spec.SerialOverhead = realm.Time(float64(haloBytes)/3.0) + realm.Microseconds(60)
	} else {
		spec.PerMessageCPU = realm.Microseconds(1)
	}
	sim, err := realm.NewSim(machine)
	if err != nil {
		return 0, err
	}
	res, err := baseline.Run(sim, spec)
	if err != nil {
		return 0, err
	}
	return res.PerIteration(cfg.Iters / 4)
}

// gridNeighbors returns the 4-neighborhood halo exchanges of a gx-by-gy
// tile grid (a star stencil exchanges no corners).
func gridNeighbors(gx, gy, tileW, tileH, r int64) func(int) []baseline.Neighbor {
	return func(node int) []baseline.Neighbor {
		tx, ty := int64(node)/gy, int64(node)%gy
		var out []baseline.Neighbor
		add := func(ntx, nty, bytes int64) {
			if ntx >= 0 && ntx < gx && nty >= 0 && nty < gy {
				out = append(out, baseline.Neighbor{Node: int(ntx*gy + nty), Bytes: bytes})
			}
		}
		add(tx-1, ty, r*tileH*8)
		add(tx+1, ty, r*tileH*8)
		add(tx, ty-1, r*tileW*8)
		add(tx, ty+1, r*tileW*8)
		return out
	}
}
