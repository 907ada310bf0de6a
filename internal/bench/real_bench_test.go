package bench_test

import (
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/ir"
)

// BenchmarkRealRun runs each app's Small(4) program in Real mode on the
// DES, under control replication and under the implicit runtime. Its
// bytes per run are what the engines' instances, reduce temporaries and
// reduce buffers cost on top of the root stores; run it with -benchmem.
func BenchmarkRealRun(b *testing.B) {
	apps := []struct {
		name  string
		build func() *ir.Program
	}{
		{"stencil", func() *ir.Program { return stencil.Build(stencil.Small(4)).Prog }},
		{"miniaero", func() *ir.Program { return miniaero.Build(miniaero.Small(4)).Prog }},
		{"pennant", func() *ir.Program { return pennant.Build(pennant.Small(4)).Prog }},
		{"circuit", func() *ir.Program { return circuit.Build(circuit.Small(4)).Prog }},
	}
	engines := []struct {
		name string
		run  func(*ir.Program, bench.Config) (*bench.Result, error)
	}{{"cr", bench.RunCR}, {"implicit", bench.RunImplicit}}
	for _, app := range apps {
		for _, eng := range engines {
			b.Run(app.name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					prog := app.build()
					b.StartTimer()
					if _, err := eng.run(prog, bench.Config{Nodes: 4}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
