package rt

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
)

// reverseMapper maps task i to the node block from the other end.
type reverseMapper struct{}

func (reverseMapper) NodeFor(colorIdx, numColors, nodes int) int {
	return (numColors - 1 - colorIdx) * nodes / numColors
}

func TestCustomMapperPreservesSemantics(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	seq := ir.ExecSequential(f.Prog)

	f2 := progtest.NewFigure2(48, 8, 3)
	sim := realm.MustNewSim(testConfig(4))
	eng := New(sim, f2.Prog, ir.ExecReal)
	eng.Map = reverseMapper{}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[f2.A].EqualOn(seq.Stores[f.A], f.Val, f.A.IndexSpace()) {
		t.Fatal("custom mapping changed results (§4.2: techniques are agnostic to the mapping)")
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
	sim := realm.MustNewSim(testConfig(2))
	res, err := New(sim, p, ir.ExecReal).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stores[r].Get(x, geometry.Pt1(7)); got != 6 {
		t.Errorf("x = %v after 3x2 increments, want 6", got)
	}
}

func TestSetScalarForcesFuture(t *testing.T) {
	// A SetScalar reading a launch-reduced scalar must force the future on
	// the control thread and compute from the resolved value.
	f := progtest.NewScalarSum(40, 8)
	sim := realm.MustNewSim(testConfig(4))
	res, err := New(sim, f.Prog, ir.ExecReal).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Env["doubled"] != 2*res.Env["total"] {
		t.Errorf("doubled = %v, total = %v", res.Env["doubled"], res.Env["total"])
	}
	if res.Env["total"] != 780 { // sum 0..39
		t.Errorf("total = %v, want 780", res.Env["total"])
	}
}

func TestRtNoiseSlowsAndStaysDeterministic(t *testing.T) {
	run := func(noise realm.NoiseFn) realm.Time {
		f := progtest.NewFigure2(48, 8, 5)
		sim := realm.MustNewSim(testConfig(4))
		eng := New(sim, f.Prog, ir.ExecModeled)
		eng.Over.Noise = noise
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
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

func TestCyclicMapperCostsMoreCommunication(t *testing.T) {
	run := func(m Mapper) int64 {
		f := progtest.NewFigure2(96, 8, 3)
		sim := realm.MustNewSim(testConfig(4))
		eng := New(sim, f.Prog, ir.ExecModeled)
		eng.Map = m
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().BytesSent
	}
	block, cyclic := run(BlockMapper{}), run(CyclicMapper{})
	if cyclic <= block {
		t.Errorf("cyclic mapping (%d bytes) should move more data than block (%d bytes)", cyclic, block)
	}
}
