// Package repro_test holds the figure benchmarks that CI diffs: Figure 6
// and Figure 8 with their ablations (each must print the default's figure
// byte for byte) and Figure 6 on the native backend. Each figure benchmark
// regenerates the data series (throughput per node across the weak-scaling
// node sweep, for every system variant) on the simulated machine through
// harness.RunFigure, which sweeps on one worker per CPU (largest node count
// first; the figure is identical at any width), and prints the same rows
// the paper plots. The native benchmark measures one cell, alone on the
// host, as a native sweep always does. Run with:
//
//	go test -run XXX -bench . -benchtime 1x
//
// The benchmarks use a condensed node sweep to stay fast; cmd/weakscale
// runs the full 1..1024 sweep of every figure and cmd/intersect Table 1.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
)

// benchNodes is the condensed weak-scaling sweep used by the benchmarks.
var benchNodes = []int{1, 4, 16, 64, 256, 1024}

func runFigure(b *testing.B, name string, opts bench.MeasureOpts) {
	app, err := harness.AppByName(name)
	if err != nil {
		b.Fatal(err)
	}
	app.Opts = opts
	for i := 0; i < b.N; i++ {
		series, err := harness.RunFigure(app, benchNodes, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println()
			fmt.Print(harness.FormatFigure(app, series))
			last := len(series[0].Points) - 1
			for _, s := range series {
				eff := s.Points[last].Throughput / s.Points[0].Throughput
				b.ReportMetric(100*eff, "eff@"+fmt.Sprint(benchNodes[last])+"-"+s.System+"-%")
			}
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: Stencil weak scaling (Regent with
// and without control replication vs the PRK MPI and MPI+OpenMP codes).
func BenchmarkFigure6Stencil(b *testing.B) { runFigure(b, "stencil", bench.MeasureOpts{}) }

// BenchmarkFigure6StencilAgg is the coalesced-exchange ablation of
// Figure 6: the same sweep with aggregation attached to every CR cell
// (the -agg flag), each cell licensed by verify.CheckAgg. At the paper's
// one-piece-per-shard scale every aggregation group is a singleton, so
// the printed figure must be byte-identical to BenchmarkFigure6Stencil —
// coalescing merges messages, never a modeled result at this scale.
func BenchmarkFigure6StencilAgg(b *testing.B) { runFigure(b, "stencil", bench.MeasureOpts{Agg: true}) }

// BenchmarkFigure6StencilNoTrace is the trace ablation of Figure 6: the
// same sweep with runtime trace capture/replay disabled. The printed
// figure must be byte-identical to BenchmarkFigure6Stencil (tracing never
// changes the simulated schedule); only host wall-clock differs.
func BenchmarkFigure6StencilNoTrace(b *testing.B) {
	runFigure(b, "stencil", bench.MeasureOpts{NoTrace: true})
}

// BenchmarkFigure8 regenerates Figure 8: PENNANT weak scaling (Regent vs
// MPI and MPI+OpenMP, with the per-cycle dt allreduce).
func BenchmarkFigure8PENNANT(b *testing.B) { runFigure(b, "pennant", bench.MeasureOpts{}) }

// BenchmarkFigure8PENNANTPrune is the certified-pruning ablation of
// Figure 8: the same sweep with the redundant-sync prune pass attached to
// every CR cell (the -prune flag). The printed figure must be
// byte-identical to BenchmarkFigure8PENNANT — pruning removes sync edges
// and dead initialization copies, never a modeled result.
func BenchmarkFigure8PENNANTPrune(b *testing.B) {
	runFigure(b, "pennant", bench.MeasureOpts{Prune: true})
}

// BenchmarkFigure6StencilNative runs the Figure 6 stencil under control
// replication on the native backend: real kernels on real goroutines over
// shared memory, timed by the wall clock. The reported per-iteration time
// is what the DES's virtual clock models; scaling GOMAXPROCS from 1 to the
// node's core count shows the real speedup the SPMD schedule exposes
// (BENCH_PR6.json records the measured ratio).
func BenchmarkFigure6StencilNative(b *testing.B) {
	const nodes = 8
	app, err := harness.AppByName("stencil")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		per, err := app.Measure("regent-cr", nodes, 0, bench.MeasureOpts{Backend: bench.BackendNative})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(per.Seconds()*1e3, "ms/iter")
		}
	}
}
