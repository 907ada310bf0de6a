package miniaero

import (
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
)

// Systems lists the Figure 7 series: Regent with/without CR and the
// MPI+Kokkos reference in its two configurations.
var Systems = []string{"regent-cr", "regent-nocr", "mpi-kokkos-core", "mpi-kokkos-node"}

// Calibration (see EXPERIMENTS.md): the Regent version out-performs the
// reference on a single node through Legion's hybrid data layouts (§5.2,
// [7]); the rank-per-node Kokkos configuration starts faster than
// rank-per-core (threading, no rank-boundary duplication) but one rank per
// node exposes the whole node to every noise spike, so it decays to the
// rank-per-core level at scale, which is the Figure 7 crossover.
const (
	mpiCorePerCellNs = 11700.0 // ~1.0e6 cells/s/node on 12 cores
	mpiNodePerCellNs = 9750.0  // ~1.2e6 cells/s/node
	noiseProb        = 0.02
	noiseAmplCore    = 0.06
	noiseAmplNode    = 0.55
	noiseSalt        = 0xae50
)

// Program builds the program both Regent systems run at a node count, and
// the tuning they run it under. iters > 0 replaces the configuration's
// iteration count.
func Program(nodes, iters int, _ bool) (*ir.Program, *ir.Loop, bench.Tuning) {
	cfg := Default(nodes)
	if iters > 0 {
		cfg.Iters = iters
	}
	app := Build(cfg)
	tune := bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
	tune.Noise = realm.SpikeNoise(noiseProb, noiseAmplCore, noiseSalt)
	return app.Prog, app.Loop, tune
}

// Baseline runs the MPI+Kokkos-style reference, one rank per core
// ("mpi-kokkos-core") or per node ("mpi-kokkos-node"): per RK stage a
// ghost-cell exchange with the strip neighbors, four stages per timestep.
func Baseline(system string, nodes, iters int) (realm.Time, error) {
	cfg, perNode := Default(nodes), system == "mpi-kokkos-node"
	if iters > 0 {
		cfg.Iters = iters
	}
	machine := realm.DefaultConfig(cfg.Pieces)
	cores := machine.CoresPerNode
	perCell := mpiCorePerCellNs
	ranks := cores
	noise := realm.SpikeNoise(noiseProb, noiseAmplCore, noiseSalt)
	if perNode {
		perCell = mpiNodePerCellNs
		ranks = 1
		noise = realm.SpikeNoise(noiseProb, noiseAmplNode, noiseSalt)
	}
	kernel := realm.Time(PaperCellsPerNode * perCell / float64(cores))
	// Ghost face of a cubic 512k-cell subdomain: 512k^(2/3) cells, 5
	// conserved doubles each, exchanged each of the 4 RK stages, with up to
	// six face neighbors on the 3-D piece grid.
	haloBytes := int64(4*6400) * 5 * 8
	px, py, pz := Factor3(int64(cfg.Pieces))

	spec := baseline.Spec{
		Nodes:        cfg.Pieces,
		Iters:        cfg.Iters,
		RanksPerNode: ranks,
		KernelTime:   kernel,
		Neighbors: func(n int) []baseline.Neighbor {
			a := int64(n) / (py * pz)
			b := (int64(n) / pz) % py
			c := int64(n) % pz
			var out []baseline.Neighbor
			add := func(na, nb, nc int64) {
				if na >= 0 && na < px && nb >= 0 && nb < py && nc >= 0 && nc < pz {
					out = append(out, baseline.Neighbor{
						Node:  int(na*(py*pz) + nb*pz + nc),
						Bytes: haloBytes,
					})
				}
			}
			add(a-1, b, c)
			add(a+1, b, c)
			add(a, b-1, c)
			add(a, b+1, c)
			add(a, b, c-1)
			add(a, b, c+1)
			return out
		},
		PerMessageCPU: realm.Microseconds(1),
		Noise:         noise,
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
