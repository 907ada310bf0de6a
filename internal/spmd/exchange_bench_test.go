package spmd_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// hotPathApps are the programs the executor's hot-path gates run at 4
// shards: a halo exchange (stencil) and reduction folds across shards
// (pennant), each at a given trip count.
var hotPathApps = []struct {
	name  string
	build func(iters int) *ir.Program
}{
	{"stencil", func(iters int) *ir.Program {
		cfg := stencil.Small(4)
		cfg.Iters = iters
		return stencil.Build(cfg).Prog
	}},
	{"pennant", func(iters int) *ir.Program {
		cfg := pennant.Small(4)
		cfg.Iters = iters
		return pennant.Build(cfg).Prog
	}},
}

// hotPathRow is one lowering of the hot-path gates: sync mode, aggregation.
type hotPathRow struct {
	sync cr.SyncMode
	agg  bool
}

func (r hotPathRow) String() string { return fmt.Sprintf("%v/agg=%v", r.sync, r.agg) }

var hotPathRows = []hotPathRow{{cr.PointToPoint, false}, {cr.PointToPoint, true}, {cr.BarrierSync, false}, {cr.BarrierSync, true}}

// maxIterAllocs pins the objects one memoized DES iteration allocates, by
// app and hotPathRows row (the values measured when the exchange wiring
// moved into cr; EXPERIMENTS.md has the values before).
var maxIterAllocs = map[string][4]float64{
	"stencil": {4.2, 4.2, 14.2, 14.2},
	"pennant": {25.35, 25.55, 62.4, 62.3},
}

// TestShardIterationAllocs pins what a memoized shard iteration allocates
// in a Modeled DES run — the executor's hot path: the objects of a long
// run less those of a short one, per extra iteration. Compilation,
// certification and the run's set-up cancel out.
func TestShardIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	const short, long = 20, 220
	for _, app := range hotPathApps {
		for ri, row := range hotPathRows {
			t.Run(app.name+"/"+row.String(), func(t *testing.T) {
				mallocs := func(iters int) uint64 {
					cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Agg: row.agg}, Nodes: 4, Sync: row.sync, Mode: ir.ExecModeled}
					prog := app.build(iters)
					runtime.GC()
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					must(t)(bench.RunCR(prog, cfg))
					runtime.ReadMemStats(&m1)
					return m1.Mallocs - m0.Mallocs
				}
				per := float64(mallocs(long)-mallocs(short)) / (long - short)
				t.Logf("%.2f objects per iteration", per)
				if want := maxIterAllocs[app.name][ri]; per > want {
					t.Errorf("a memoized iteration allocates %.2f objects, want <= %.2f", per, want)
				}
			})
		}
	}
}

// TestLongRunFlatMemory: a loop keeps an iteration's shared state (sync
// block, barriers, collectives) only while a shard still runs it, so the
// live heap at loop finalization — the run state still referenced — grows
// with the trip count by no more than the loop's iteration stamps (8 B per
// iteration) plus 64 KiB, for every hot-path app and row on both backends,
// Modeled.
func TestLongRunFlatMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	const short, long = 200, 1600
	for _, app := range hotPathApps {
		for _, row := range hotPathRows {
			for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
				t.Run(app.name+"/"+row.String()+"/"+backend, func(t *testing.T) {
					live := func(iters int) int64 {
						var heap uint64
						opts := cr.Options{NumShards: 4, Sync: row.sync, Agg: row.agg}
						eng := watchedEngine(t, app.build(iters), backend, ir.ExecModeled, opts, false, func(r spmd.LoopRun) {
							runtime.GC()
							var m runtime.MemStats
							runtime.ReadMemStats(&m)
							heap = m.HeapAlloc
							runtime.KeepAlive(r)
						})
						if _, err := eng.Run(); err != nil {
							t.Fatal(err)
						}
						return int64(heap)
					}
					a, b := live(short), live(long)
					t.Logf("live heap at finalize: %d B at %d iterations, %d B at %d", a, short, b, long)
					if limit := int64(8*(long-short) + 64<<10); b-a > limit {
						t.Errorf("live heap grew %d B from %d to %d iterations, want <= %d", b-a, short, long, limit)
					}
				})
			}
		}
	}
}

// BenchmarkExchange is the executor's host cost per Modeled DES run of 16
// iterations, compiled once, over hotPathRows: memoized, and re-resolved
// every iteration (NoTrace) (run with -benchmem).
func BenchmarkExchange(b *testing.B) {
	for _, app := range hotPathApps {
		for _, row := range hotPathRows {
			for _, noTrace := range []bool{false, true} {
				name := app.name + "/" + row.String()
				if noTrace {
					name += "/notrace"
				}
				b.Run(name, func(b *testing.B) {
					prog := app.build(16)
					plans, err := spmd.CompileAll(prog, cr.Options{NumShards: 4, Sync: row.sync, Agg: row.agg})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng := spmd.New(realm.MustNewSim(realm.DefaultConfig(4)), prog, ir.ExecModeled, plans)
						eng.NoTrace = noTrace
						if _, err := eng.Run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
