// Package baseline provides the hand-written SPMD reference codes the paper
// compares against (MPI, MPI+OpenMP, MPI+Kokkos in rank-per-core and
// rank-per-node configurations). A baseline run models one rank group per
// node: each node thread computes its kernel, exchanges halos with its
// neighbors, optionally joins a per-iteration allreduce, and repeats —
// exactly the structure of Figure 1b, written directly against the machine
// interface (realm.Exec) with none of the tasking runtime's overheads.
package baseline

import (
	"fmt"

	"repro/internal/realm"
)

// Neighbor describes one outgoing halo exchange of a node per iteration.
type Neighbor struct {
	Node  int   // destination node
	Bytes int64 // payload per iteration (total across the node's ranks)
}

// Spec describes a weak-scaling baseline run.
type Spec struct {
	Nodes int
	Iters int
	// RanksPerNode: 1 models rank-per-node (threaded kernel); >1 models
	// rank-per-core, which splits each neighbor exchange into RanksPerNode
	// messages (more messages, each smaller) and adds per-rank message
	// overhead on the host CPU.
	RanksPerNode int
	// KernelTime is the per-node compute time per iteration (already
	// accounting for intra-node parallelism).
	KernelTime realm.Time
	// SerialOverhead is extra unoverlapped per-iteration time (e.g. the
	// serialized communication/pack section of an MPI+OpenMP code).
	SerialOverhead realm.Time
	// PerMessageCPU is host CPU time consumed per message posted.
	PerMessageCPU realm.Time
	// Neighbors lists each node's outgoing exchanges.
	Neighbors func(node int) []Neighbor
	// Allreduce adds a per-iteration global scalar reduction (PENNANT dt).
	Allreduce bool
	// Noise optionally scales kernel time per (node, iteration) to model
	// load imbalance and OS noise.
	Noise realm.NoiseFn
}

// Result reports the run's per-iteration completion times.
type Result struct {
	IterTimes []realm.Time
	Elapsed   realm.Time
}

// Run executes the baseline on the given machine. Each node is one agent;
// received halos are awaited through per-(node,iteration) counting
// barriers sized by the incoming-message count, like matched
// MPI_Irecv/Waitall.
func Run(x realm.Exec, spec Spec) (*Result, error) {
	if spec.Nodes > x.Nodes() {
		return nil, fmt.Errorf("baseline: spec wants %d nodes, machine has %d", spec.Nodes, x.Nodes())
	}
	if spec.RanksPerNode < 1 {
		spec.RanksPerNode = 1
	}

	// Each node's exchanges, evaluated once, and from them the incoming
	// messages per node per iteration.
	neighbors := make([][]Neighbor, spec.Nodes)
	incoming := make([]int, spec.Nodes)
	for n := range neighbors {
		neighbors[n] = spec.Neighbors(n)
		for _, nb := range neighbors[n] {
			if nb.Node < 0 || nb.Node >= spec.Nodes {
				return nil, fmt.Errorf("baseline: node %d names neighbor %d, outside the spec's %d nodes", n, nb.Node, spec.Nodes)
			}
			if nb.Node != n {
				incoming[nb.Node] += spec.RanksPerNode
			}
		}
	}

	recvBar := make([][]realm.BarrierOp, spec.Nodes)
	for n := range recvBar {
		recvBar[n] = make([]realm.BarrierOp, spec.Iters)
		for t := range recvBar[n] {
			if incoming[n] > 0 {
				recvBar[n][t] = x.Barrier(incoming[n])
			}
		}
	}
	colls := make([]realm.CollectiveOp, spec.Iters)
	if spec.Allreduce {
		for t := range colls {
			colls[t] = x.Collective(spec.Nodes, 0, func(a, v float64) float64 { return a + v })
		}
	}

	iterTimes := make([]realm.Time, spec.Iters)
	remaining := make([]int, spec.Iters)
	for t := range remaining {
		remaining[t] = spec.Nodes
	}

	for n := 0; n < spec.Nodes; n++ {
		n := n
		x.SpawnOn(fmt.Sprintf("rank-%d", n), n, 0, func(th realm.Agent) {
			for t := 0; t < spec.Iters; t++ {
				kt := spec.KernelTime
				if spec.Noise != nil {
					kt = realm.Time(float64(kt) * spec.Noise(n, t))
				}
				th.Elapse(kt + spec.SerialOverhead)
				for _, nb := range neighbors[n] {
					if nb.Node == n {
						continue
					}
					per := nb.Bytes / int64(spec.RanksPerNode)
					for r := 0; r < spec.RanksPerNode; r++ {
						th.Elapse(spec.PerMessageCPU)
						ev := x.CopyBytes(n, nb.Node, per, realm.NoEvent, nil)
						recvBar[nb.Node][t].Arrive(ev)
					}
				}
				if recvBar[n][t] != nil {
					th.WaitEvent(recvBar[n][t].Done())
				}
				if spec.Allreduce {
					colls[t].Contribute(n, realm.NoEvent, func() float64 { return 1 })
					th.WaitEvent(colls[t].Done())
				}
				remaining[t]--
				if remaining[t] == 0 {
					iterTimes[t] = x.Now()
				}
			}
		})
	}
	elapsed, err := x.Drive()
	if err != nil {
		return nil, err
	}
	return &Result{IterTimes: iterTimes, Elapsed: elapsed}, nil
}

// PerIteration returns the steady-state per-iteration time, skipping
// warm-up iterations. Like bench.steadyState, a warm-up leaving fewer than
// two samples is a loud error rather than a silent measurement from
// iteration 0 (which would fold startup effects into the steady rate, or
// divide by zero on a single-iteration run).
func (r *Result) PerIteration(skip int) (realm.Time, error) {
	n := len(r.IterTimes)
	if n < 2 {
		return 0, fmt.Errorf("baseline: need at least 2 iterations, got %d", n)
	}
	if n-skip < 2 {
		return 0, fmt.Errorf("baseline: warm-up of %d iterations leaves %d of %d samples for steady state (need at least 2); increase the iteration count",
			skip, n-skip, n)
	}
	return (r.IterTimes[n-1] - r.IterTimes[skip]) / realm.Time(n-1-skip), nil
}
