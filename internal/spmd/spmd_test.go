// The executor's tests run their programs through bench.RunCR (and the
// implicit runtime's through bench.RunImplicit): a test is a set of
// bench.Config rows, and a store check reads the run's *ir.SeqResult
// through progtest.Diff, against the sequential interpreter or another row.
// They live outside package spmd because bench imports it.
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

// must returns the record of a run the test expects to succeed.
func must(t *testing.T) func(*bench.Result, error) *bench.Result {
	return func(r *bench.Result, err error) *bench.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// engineTuning is the SPMD executor's default overheads on the default
// machine of the given nodes, as a Tuning a row changes one field of.
func engineTuning(nodes int) bench.Tuning {
	o := spmd.DefaultOverheads(realm.DefaultConfig(nodes).CoresPerNode)
	return bench.Tuning{ShardLaunchBase: o.ShardLaunchBase, KernelCores: o.KernelCores, Window: o.Window}
}

// diff fails the test, naming every difference, unless got's stores and
// scalars are bitwise want's.
func diff(t *testing.T, want *ir.SeqResult, got *bench.Result) {
	t.Helper()
	if err := progtest.Diff(want, got.SeqResult); err != nil {
		t.Error(err)
	}
}

// pruneApps builds each evaluation application at the correctness-testing
// size. Programs are rebuilt per run (region identities are per-instance).
var pruneApps = []struct {
	name  string
	build func(nodes int) *ir.Program
}{
	{"stencil", func(n int) *ir.Program { return stencil.Build(stencil.Small(n)).Prog }},
	{"miniaero", func(n int) *ir.Program { return miniaero.Build(miniaero.Small(n)).Prog }},
	{"pennant", func(n int) *ir.Program { return pennant.Build(pennant.Small(n)).Prog }},
	{"circuit", func(n int) *ir.Program { return circuit.Build(circuit.Small(n)).Prog }},
}

// planModes names the NoTrace axis of the equivalence matrices.
var planModes = []struct {
	name    string
	noTrace bool
}{{"memoized", false}, {"reresolved", true}}

// figure2 builds the running example; the sequential run is of a build of
// its own.
func figure2(n, nt int64, trip int) func() *ir.Program {
	return func() *ir.Program { return progtest.NewFigure2(n, nt, trip).Prog }
}

func TestCRMatchesSequentialFigure2(t *testing.T) {
	for _, tc := range []struct {
		n, nt int64
		trip  int
		cfg   bench.Config
	}{
		{24, 4, 1, bench.Config{Nodes: 1}},
		{24, 4, 3, bench.Config{Nodes: 2}},
		{48, 8, 4, bench.Config{Nodes: 4}},
		{48, 8, 4, bench.Config{Nodes: 4, Sync: cr.BarrierSync}},
		{30, 5, 2, bench.Config{Nodes: 3}},            // colors not divisible
		{48, 8, 3, bench.Config{Nodes: 2, Shards: 4}}, // more shards than nodes
		{48, 8, 3, bench.Config{Nodes: 8, Shards: 4}}, // shards = colors
	} {
		build := figure2(tc.n, tc.nt, tc.trip)
		diff(t, ir.ExecSequential(build()), must(t)(bench.RunCR(build(), tc.cfg)))
	}
}

func TestCRScalarReduction(t *testing.T) {
	build := func() *ir.Program { return progtest.NewScalarSum(40, 8).Prog }
	diff(t, ir.ExecSequential(build()), must(t)(bench.RunCR(build(), bench.Config{Nodes: 4})))
}

func TestCRRegionReduction(t *testing.T) {
	build := func() *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		diff(t, ir.ExecSequential(build()), must(t)(bench.RunCR(build(), bench.Config{Nodes: 4, Sync: sync})))
	}
}

func TestCRDeterministic(t *testing.T) {
	run := func() *bench.Result {
		return must(t)(bench.RunCR(figure2(48, 8, 3)(), bench.Config{Nodes: 4}))
	}
	r1 := run()
	for i := 0; i < 3; i++ {
		if r2 := run(); r1.Elapsed != r2.Elapsed || r1.Stats != r2.Stats {
			t.Fatalf("non-deterministic: %v/%+v vs %v/%+v", r1.Elapsed, r1.Stats, r2.Elapsed, r2.Stats)
		}
	}
}

func TestCRModeledMatchesRealTiming(t *testing.T) {
	cfg := bench.Config{Nodes: 4}
	r1 := must(t)(bench.RunCR(figure2(64, 8, 3)(), cfg))
	cfg.Mode = ir.ExecModeled
	r2 := must(t)(bench.RunCR(figure2(64, 8, 3)(), cfg))
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("Real %v != Modeled %v", r1.Elapsed, r2.Elapsed)
	}
	if len(r2.Stores) != 0 {
		t.Error("modeled mode should not allocate stores")
	}
}

func TestCRIterTimesRecorded(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 5)
	res := must(t)(bench.RunCR(f.Prog, bench.Config{Nodes: 4, Mode: ir.ExecModeled}))
	times := res.IterTimes[f.Loop]
	if len(times) != 5 {
		t.Fatalf("iteration times = %v", times)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("iteration completions not increasing: %v", times)
		}
	}
}

// TestCRBeatsImplicitAtScale is the headline property (Figures 6-9): with
// many nodes and short tasks, the implicit runtime's serial control thread
// dominates, while control replication's per-shard control cost stays flat.
func TestCRBeatsImplicitAtScale(t *testing.T) {
	const nodes = 32
	cfg := bench.Config{Nodes: nodes, Mode: ir.ExecModeled}
	perIter := func(run func(*ir.Program, bench.Config) (*bench.Result, error)) realm.Time {
		f := progtest.NewFigure2(nodes*64, nodes, 6)
		per, err := must(t)(run(f.Prog, cfg)).SteadyState(f.Loop)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	if imp, rep := perIter(bench.RunImplicit), perIter(bench.RunCR); rep*4 > imp {
		t.Errorf("CR per-iteration %v should be well below implicit %v at %d nodes", rep, imp, nodes)
	}
}

// TestP2PBeatsBarriers checks the §3.4 optimization: point-to-point sync
// scales better than the naive global barriers when only neighbors
// communicate.
func TestP2PBeatsBarriers(t *testing.T) {
	const nodes = 16
	run := func(sync cr.SyncMode) realm.Time {
		f := progtest.NewFigure2(nodes*16, nodes, 8)
		res := must(t)(bench.RunCR(f.Prog, bench.Config{Nodes: nodes, Sync: sync, Mode: ir.ExecModeled}))
		per, err := res.SteadyState(f.Loop)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	if p2p, bar := run(cr.PointToPoint), run(cr.BarrierSync); p2p > bar {
		t.Errorf("p2p per-iteration %v should not exceed barrier %v", p2p, bar)
	}
}

// TestCRDataMovementScopedToHalo: the run moves data across nodes, and what
// the compiled copies move is the halo (QB[j] = PB[j] shifted by 3 overlaps
// its own block and 3 elements of the next), far below the region size.
func TestCRDataMovementScopedToHalo(t *testing.T) {
	const nodes = 8
	f := progtest.NewFigure2(nodes*100, nodes, 4)
	res := must(t)(bench.RunCR(f.Prog, bench.Config{Nodes: nodes, Mode: ir.ExecModeled}))
	if res.Stats.BytesSent == 0 {
		t.Fatal("expected cross-node traffic")
	}
	var remote int64
	for _, op := range res.Plans[f.Loop].Body {
		if op.Copy != nil {
			for _, pr := range op.Copy.Pairs {
				if pr.Src != pr.Dst {
					remote += pr.Overlap.Volume()
				}
			}
		}
	}
	if remote == 0 || remote > 3*nodes {
		t.Errorf("copies move %d elements between colors per iteration, want the halo (0 < n <= %d)", remote, 3*nodes)
	}
}

// TestRandomizedEquivalence runs random programs — random partitions
// (blocks and images), launch sequences with read/write/reduce privileges,
// loop lengths — at every point of {p2p, barrier} x {plain, prune, agg,
// prune∘agg} x {memoized, re-resolved} on the DES, and of that product on
// native for every eighth seed, plus on the implicit runtime. Every row must
// agree bitwise with the sequential interpreter.
func TestRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		build := func() *ir.Program {
			prog, _, _ := progtest.RandomProgram(seed)
			return prog
		}
		seq := ir.ExecSequential(build())
		check := func(row string, res *bench.Result, err error) {
			if err == nil {
				err = progtest.Diff(seq, res.SeqResult)
			}
			if err != nil {
				t.Errorf("seed %d %s: %v", seed, row, err)
			}
		}
		res, err := bench.RunImplicit(build(), bench.Config{Nodes: 3})
		check("implicit", res, err)
		backends := []string{bench.BackendDES}
		if seed%8 == 0 && !testing.Short() {
			backends = append(backends, bench.BackendNative)
		}
		for _, backend := range backends {
			for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
				for _, agg := range []bool{false, true} {
					for _, prune := range []bool{false, true} {
						for _, noTrace := range []bool{false, true} {
							opts := bench.MeasureOpts{Backend: backend, Agg: agg, Prune: prune, NoTrace: noTrace}
							res, err := bench.RunCR(build(), bench.Config{MeasureOpts: opts, Nodes: 3, Sync: sync})
							check(fmt.Sprintf("%s/%v/agg=%v/prune=%v/notrace=%v", backend, sync, agg, prune, noTrace), res, err)
						}
					}
				}
			}
		}
	}
}
