package rt

import (
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
)

func testConfig(nodes int) realm.Config {
	cfg := realm.DefaultConfig(nodes)
	cfg.CoresPerNode = 4
	return cfg
}

// runBoth executes a program sequentially and on the implicit runtime and
// returns both results.
func runBoth(t *testing.T, prog *ir.Program, nodes int) (*ir.SeqResult, *Result) {
	t.Helper()
	seq := ir.ExecSequential(prog)
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, ir.ExecReal)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return seq, res
}

func assertStoresEqual(t *testing.T, seq *ir.SeqResult, res *Result, r *region.Region, f region.FieldID) {
	t.Helper()
	want, got := seq.Stores[r], res.Stores[r]
	if !got.EqualOn(want, f, r.IndexSpace()) {
		bad := 0
		r.IndexSpace().Each(func(p geometry.Point) bool {
			if got.Get(f, p) != want.Get(f, p) {
				if bad < 5 {
					t.Errorf("%s[%v] field %d = %v, want %v", r.Name(), p, f, got.Get(f, p), want.Get(f, p))
				}
				bad++
			}
			return true
		})
		t.Fatalf("store mismatch on %s (%d points differ)", r.Name(), bad)
	}
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
		f := progtest.NewFigure2(tc.n, tc.nt, tc.trip)
		seq, res := runBoth(t, f.Prog, tc.nodes)
		assertStoresEqual(t, seq, res, f.A, f.Val)
		assertStoresEqual(t, seq, res, f.B, f.Val)
	}
}

func TestImplicitScalarReduceFuture(t *testing.T) {
	f := progtest.NewScalarSum(40, 8)
	seq, res := runBoth(t, f.Prog, 4)
	if res.Env["total"] != seq.Env["total"] {
		t.Errorf("total = %v, want %v", res.Env["total"], seq.Env["total"])
	}
	if res.Env["doubled"] != seq.Env["doubled"] || res.Env["doubled"] != 2*res.Env["total"] {
		t.Errorf("doubled = %v", res.Env["doubled"])
	}
}

func TestImplicitRegionReductionMatchesSequential(t *testing.T) {
	f := progtest.NewRegionReduce(32, 4, 3)
	seq, res := runBoth(t, f.Prog, 4)
	assertStoresEqual(t, seq, res, f.R, f.Acc)
	assertStoresEqual(t, seq, res, f.R, f.Prog.FieldSpaces[f.R].Field("out"))
}

func TestImplicitDeterministic(t *testing.T) {
	run := func() (realm.Time, realm.Stats) {
		f := progtest.NewFigure2(48, 8, 3)
		sim := realm.MustNewSim(testConfig(4))
		eng := New(sim, f.Prog, ir.ExecReal)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed, res.Stats
	}
	e1, s1 := run()
	for i := 0; i < 3; i++ {
		e2, s2 := run()
		if e1 != e2 || s1 != s2 {
			t.Fatalf("non-deterministic run: %v/%+v vs %v/%+v", e1, s1, e2, s2)
		}
	}
}

func TestModeledModeRunsWithoutStores(t *testing.T) {
	f := progtest.NewFigure2(1000, 8, 5)
	sim := realm.MustNewSim(testConfig(4))
	eng := New(sim, f.Prog, ir.ExecModeled)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
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
	f1 := progtest.NewFigure2(64, 8, 3)
	sim1 := realm.MustNewSim(testConfig(4))
	r1, err := New(sim1, f1.Prog, ir.ExecReal).Run()
	if err != nil {
		t.Fatal(err)
	}
	f2 := progtest.NewFigure2(64, 8, 3)
	sim2 := realm.MustNewSim(testConfig(4))
	r2, err := New(sim2, f2.Prog, ir.ExecModeled).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("Real elapsed %v != Modeled elapsed %v", r1.Elapsed, r2.Elapsed)
	}
}

func TestDataMovementOnlyAcrossNodes(t *testing.T) {
	f1 := progtest.NewFigure2(48, 8, 2)
	sim1 := realm.MustNewSim(testConfig(1))
	if _, err := New(sim1, f1.Prog, ir.ExecReal).Run(); err != nil {
		t.Fatal(err)
	}
	if sim1.Stats().Messages != 0 {
		t.Errorf("single node run sent %d messages", sim1.Stats().Messages)
	}

	f2 := progtest.NewFigure2(48, 8, 2)
	sim2 := realm.MustNewSim(testConfig(4))
	if _, err := New(sim2, f2.Prog, ir.ExecReal).Run(); err != nil {
		t.Fatal(err)
	}
	st := sim2.Stats()
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
		sim := realm.MustNewSim(testConfig(nodes))
		eng := New(sim, f.Prog, ir.ExecModeled)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		times := res.IterTimes[f.Loop]
		return (times[5] - times[1]) / 4
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
	sim := realm.MustNewSim(testConfig(4))
	eng := New(sim, f.Prog, ir.ExecModeled)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	kernelPerIter := realm.Time(2 * 4096 / 4 * 4000 / int64(eng.Over.KernelCores))
	controlPerIter := realm.Time(8) * eng.Over.LaunchBase
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
	sim := realm.MustNewSim(testConfig(2))
	_, err := New(sim, p, ir.ExecReal).Run()
	if err == nil || !strings.Contains(err.Error(), "conflicting aliased arguments") {
		t.Errorf("expected intra-launch conflict error, got %v", err)
	}
}

func TestUseDominationKeepsHistoryBounded(t *testing.T) {
	// Iterating the figure-2 loop many times must not grow the analysis
	// history: full-partition writers absorb earlier epochs.
	f := progtest.NewFigure2(48, 8, 20)
	sim := realm.MustNewSim(testConfig(2))
	eng := New(sim, f.Prog, ir.ExecModeled)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for root, uses := range eng.users {
		if len(uses) > 8 {
			t.Errorf("history for %s grew to %d uses", root.Name(), len(uses))
		}
	}
}

func TestMapperDistribution(t *testing.T) {
	m := BlockMapper{}
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
