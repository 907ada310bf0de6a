package rt_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
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

// diff fails the test, naming every difference, unless got's stores and
// scalars are bitwise want's.
func diff(t *testing.T, want *ir.SeqResult, got *bench.Result) {
	t.Helper()
	if err := progtest.Diff(want, got.SeqResult); err != nil {
		t.Error(err)
	}
}

// figure2 builds the running example; the sequential run is of a build of
// its own.
func figure2(n, nt int64, trip int) func() *ir.Program {
	return func() *ir.Program { return progtest.NewFigure2(n, nt, trip).Prog }
}

func TestImplicitMatchesSequentialFigure2(t *testing.T) {
	for _, tc := range []struct {
		n, nt int64
		trip  int
		nodes int
	}{
		{24, 4, 1, 1},
		{24, 4, 3, 2},
		{48, 8, 4, 4},
		{30, 5, 2, 3}, // colors not divisible by nodes
	} {
		build := figure2(tc.n, tc.nt, tc.trip)
		diff(t, ir.ExecSequential(build()), must(t)(bench.RunImplicit(build(), bench.Config{Nodes: tc.nodes})))
	}
}

func TestImplicitScalarReduceFuture(t *testing.T) {
	res := must(t)(bench.RunImplicit(progtest.NewScalarSum(40, 8).Prog, bench.Config{Nodes: 4}))
	diff(t, ir.ExecSequential(progtest.NewScalarSum(40, 8).Prog), res)
	if res.Env["doubled"] != 2*res.Env["total"] {
		t.Errorf("doubled = %v", res.Env["doubled"])
	}
}

func TestImplicitRegionReductionMatchesSequential(t *testing.T) {
	build := func() *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }
	diff(t, ir.ExecSequential(build()), must(t)(bench.RunImplicit(build(), bench.Config{Nodes: 4})))
}

func TestImplicitDeterministic(t *testing.T) {
	run := func() *bench.Result {
		return must(t)(bench.RunImplicit(figure2(48, 8, 3)(), bench.Config{Nodes: 4}))
	}
	r1 := run()
	for i := 0; i < 3; i++ {
		if r2 := run(); r1.Elapsed != r2.Elapsed || r1.Stats != r2.Stats {
			t.Fatalf("non-deterministic run: %v/%+v vs %v/%+v", r1.Elapsed, r1.Stats, r2.Elapsed, r2.Stats)
		}
	}
}

func TestModeledModeRunsWithoutStores(t *testing.T) {
	f := progtest.NewFigure2(1000, 8, 5)
	res := must(t)(bench.RunImplicit(f.Prog, bench.Config{Nodes: 4, Mode: ir.ExecModeled}))
	if len(res.Stores) != 0 {
		t.Error("modeled mode should not allocate stores")
	}
	if res.Elapsed <= 0 {
		t.Error("modeled run should advance virtual time")
	}
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

func TestModeledMatchesRealTiming(t *testing.T) {
	// The virtual-time behaviour must not depend on whether kernels run.
	cfg := bench.Config{Nodes: 4}
	r1 := must(t)(bench.RunImplicit(figure2(64, 8, 3)(), cfg))
	cfg.Mode = ir.ExecModeled
	r2 := must(t)(bench.RunImplicit(figure2(64, 8, 3)(), cfg))
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("Real elapsed %v != Modeled elapsed %v", r1.Elapsed, r2.Elapsed)
	}
}

func TestDataMovementOnlyAcrossNodes(t *testing.T) {
	if st := must(t)(bench.RunImplicit(figure2(48, 8, 2)(), bench.Config{Nodes: 1})).Stats; st.Messages != 0 {
		t.Errorf("single node run sent %d messages", st.Messages)
	}
	st := must(t)(bench.RunImplicit(figure2(48, 8, 2)(), bench.Config{Nodes: 4})).Stats
	if st.Messages == 0 || st.BytesSent == 0 {
		t.Errorf("multi-node run should move data: %+v", st)
	}
}

func TestControlOverheadScalesWithTasks(t *testing.T) {
	// With negligible kernels, per-iteration time is dominated by the
	// control thread's serial launch overhead, which grows linearly with
	// the number of tasks — the scalability failure of Figure 1 (§1).
	perIter := func(nt int64, nodes int) realm.Time {
		f := progtest.NewFigure2(4*nt, nt, 6)
		// Shrink kernels to make control the bottleneck.
		for _, s := range f.Loop.Body {
			s.(*ir.Launch).Task.CostPerElem = 0.1
		}
		res := must(t)(bench.RunImplicit(f.Prog, bench.Config{Nodes: nodes, Mode: ir.ExecModeled}))
		per, err := res.SteadyState(f.Loop)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	small := perIter(8, 4)
	large := perIter(64, 4)
	ratio := float64(large) / float64(small)
	if ratio < 5 || ratio > 12 {
		t.Errorf("8x more tasks changed per-iteration control time by %.1fx, want ~8x", ratio)
	}
}

func TestPipelining(t *testing.T) {
	// With the scheduling window, total time must be well below the sum of
	// serialized (control + kernel) per iteration: control of iteration t+1
	// overlaps kernels of iteration t.
	f := progtest.NewFigure2(4096, 4, 8)
	for _, s := range f.Loop.Body {
		s.(*ir.Launch).Task.CostPerElem = 4000 // ~4 ms per task kernel
	}
	mc := realm.DefaultConfig(4)
	mc.CoresPerNode = 4
	res := must(t)(bench.RunImplicit(f.Prog, bench.Config{Nodes: 4, Mode: ir.ExecModeled, Exec: realm.MustNewSim(mc)}))
	over := rt.DefaultOverheads(mc.CoresPerNode)
	kernelPerIter := realm.Time(2 * 4096 / 4 * 4000 / int64(over.KernelCores))
	controlPerIter := realm.Time(8) * over.LaunchBase
	serialized := realm.Time(8) * (kernelPerIter + controlPerIter)
	if res.Elapsed >= serialized {
		t.Errorf("no pipelining: elapsed %v >= fully serialized %v", res.Elapsed, serialized)
	}
}

func TestIntraLaunchConflictRejected(t *testing.T) {
	p := ir.NewProgram("conflict")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	n := int64(16)
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	img := region.Image(r, pr, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + 1) % n)}
	})
	bad := &ir.TaskDecl{
		Name: "bad",
		Params: []ir.Param{
			{Priv: ir.PrivReadWrite, Fields: []region.FieldID{x}},
			{Priv: ir.PrivRead, Fields: []region.FieldID{x}},
		},
		Kernel: func(tc *ir.TaskCtx) {},
	}
	p.Add(&ir.Launch{Task: bad, Domain: ir.Colors1D(4), Args: []ir.RegionArg{{Part: pr}, {Part: img}}})
	_, err := bench.RunImplicit(p, bench.Config{Nodes: 2})
	if err == nil || !strings.Contains(err.Error(), "conflicting aliased arguments") {
		t.Errorf("expected intra-launch conflict error, got %v", err)
	}
}

func TestMapperDistribution(t *testing.T) {
	m := rt.BlockMapper{}
	counts := make([]int, 4)
	for i := 0; i < 16; i++ {
		n := m.NodeFor(i, 16, 4)
		if n < 0 || n >= 4 {
			t.Fatalf("node %d out of range", n)
		}
		counts[n]++
	}
	for node, c := range counts {
		if c != 4 {
			t.Errorf("node %d got %d tasks, want 4", node, c)
		}
	}
	// Block property: consecutive colors map to non-decreasing nodes.
	last := 0
	for i := 0; i < 16; i++ {
		n := m.NodeFor(i, 16, 4)
		if n < last {
			t.Error("mapping not contiguous")
		}
		last = n
	}
}
