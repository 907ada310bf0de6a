package cr_test

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
)

// BenchmarkCompile is one cr.Compile of each application's program, built
// as the DES sweep's Regent cells build it, at 64 and 1024 shards
// (point-to-point sync, one shard per node). The program is built once per
// sub-benchmark; only Compile is timed. Run it with -benchmem: B/op is the
// compiler's allocation per plan.
func BenchmarkCompile(b *testing.B) {
	for _, app := range harness.Apps() {
		for _, n := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/%d", app.Name, n), func(b *testing.B) {
				prog, loop := app.BuildProgram(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cr.Compile(prog, loop, cr.Options{NumShards: n}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
