package rt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
)

// reverseMapper maps task i to the node block from the other end.
type reverseMapper struct{}

func (reverseMapper) NodeFor(colorIdx, numColors, nodes int) int {
	return (numColors - 1 - colorIdx) * nodes / numColors
}

// TestCustomMapperPreservesSemantics: §4.2's techniques are agnostic to
// the mapping. The mapper is an engine knob the runner does not take, so
// the test drives the engine itself.
func TestCustomMapperPreservesSemantics(t *testing.T) {
	eng := rt.New(realm.MustNewSim(realm.DefaultConfig(4)), figure2(48, 8, 3)(), ir.ExecReal)
	eng.Map = reverseMapper{}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := progtest.Diff(ir.ExecSequential(figure2(48, 8, 3)()), &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		t.Fatalf("custom mapping changed results: %v", err)
	}
}

func TestNestedLoops(t *testing.T) {
	// A loop of loops: the outer sequential loop contains an inner loop of
	// launches, exercising recursive loop interpretation and windowing.
	p := ir.NewProgram("nested")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	inc := &ir.TaskDecl{
		Name:   "inc",
		Params: []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{x}}},
		Kernel: func(tc *ir.TaskCtx) {
			a := &tc.Args[0]
			a.Each(func(pt geometry.Point) bool {
				a.Set(x, pt, a.Get(x, pt)+1)
				return true
			})
		},
		CostPerElem: 10,
	}
	p.Add(
		&ir.Fill{Target: r, Field: x, Value: 0},
		&ir.Loop{Var: "outer", Trip: 3, Body: []ir.Stmt{
			&ir.Loop{Var: "inner", Trip: 2, Body: []ir.Stmt{
				&ir.Launch{Task: inc, Domain: ir.Colors1D(4), Args: []ir.RegionArg{{Part: pr}}},
			}},
		}},
	)
	res := must(t)(bench.RunImplicit(p, bench.Config{Nodes: 2}))
	if got := res.Stores[r].Get(x, geometry.Pt1(7)); got != 6 {
		t.Errorf("x = %v after 3x2 increments, want 6", got)
	}
}

func TestSetScalarForcesFuture(t *testing.T) {
	// A SetScalar reading a launch-reduced scalar must force the future on
	// the control thread and compute from the resolved value.
	res := must(t)(bench.RunImplicit(progtest.NewScalarSum(40, 8).Prog, bench.Config{Nodes: 4}))
	if res.Env["doubled"] != 2*res.Env["total"] {
		t.Errorf("doubled = %v, total = %v", res.Env["doubled"], res.Env["total"])
	}
	if res.Env["total"] != 780 { // sum 0..39
		t.Errorf("total = %v, want 780", res.Env["total"])
	}
}

func TestRtNoiseSlowsAndStaysDeterministic(t *testing.T) {
	run := func(noise realm.NoiseFn) realm.Time {
		o := rt.DefaultOverheads(realm.DefaultConfig(4).CoresPerNode)
		tune := bench.Tuning{ImplicitLaunchBase: o.LaunchBase, ImplicitLaunchPerSub: o.LaunchPerSub,
			KernelCores: o.KernelCores, ImplicitWindow: o.Window, Noise: noise}
		return must(t)(bench.RunImplicit(figure2(48, 8, 5)(), bench.Config{Nodes: 4, Mode: ir.ExecModeled, Tune: &tune})).Elapsed
	}
	noisy := realm.SpikeNoise(0.9, 1.0, 3)
	a, b := run(noisy), run(noisy)
	if a != b {
		t.Fatalf("noisy implicit runs diverged: %v vs %v", a, b)
	}
	if a <= run(nil) {
		t.Error("noise should slow the implicit run")
	}
}

// TestCyclicMapperCostsMoreCommunication drives the engine itself, for its
// mapper.
func TestCyclicMapperCostsMoreCommunication(t *testing.T) {
	run := func(m rt.Mapper) int64 {
		eng := rt.New(realm.MustNewSim(realm.DefaultConfig(4)), figure2(96, 8, 3)(), ir.ExecModeled)
		eng.Map = m
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.BytesSent
	}
	block, cyclic := run(rt.BlockMapper{}), run(rt.CyclicMapper{})
	if cyclic <= block {
		t.Errorf("cyclic mapping (%d bytes) should move more data than block (%d bytes)", cyclic, block)
	}
}
