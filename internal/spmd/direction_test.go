package spmd_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/spmd"
)

// Direction tests for design choices the benchmark's cells do not cover:
// each asserts which way an effect points, not its size. (The lowering's
// direction is TestP2PBeatsBarriers; trace and share identity are the
// harness' series tests and the benchmark's des_paths cells.)

// stencil1D builds a two-region 1-D stencil-shaped program (write OUT from
// IN's footprint, then advance IN), either with the flat aliased footprint
// partition or with the hierarchical private/ghost split of §4.5.
func stencil1D(n, nt int64, trip int, hierarchical bool) (*ir.Program, *ir.Loop) {
	p := ir.NewProgram("stencil1d")
	fs := region.NewFieldSpace("u")
	u := fs.Field("u")
	in := p.Tree.NewRegion("IN", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	out := p.Tree.NewRegion("OUT", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[in] = fs
	p.FieldSpaces[out] = fs
	flat := in.Block("PIN", nt)
	pout := out.Block("POUT", nt)
	r := int64(2)
	footprint := func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{geometry.R1(b.Lo.X()-r, b.Hi.X()+r)}
	}
	halo := func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{
			geometry.R1(b.Lo.X()-r, b.Lo.X()-1),
			geometry.R1(b.Hi.X()+1, b.Hi.X()+r),
		}
	}

	var inWriteArgs []ir.RegionArg
	var readArgs []ir.RegionArg
	if !hierarchical {
		qin := region.ImageRects(in, flat, "QIN", footprint)
		inWriteArgs = []ir.RegionArg{{Part: flat}}
		readArgs = []ir.RegionArg{{Part: qin}}
	} else {
		var ghost geometry.IndexSpace = geometry.EmptyIndexSpace(1)
		flat.Each(func(_ geometry.Point, sub *region.Region) bool {
			b := sub.IndexSpace().Bounds()
			ghost = ghost.Union(geometry.FromRects(1, halo(sub.IndexSpace())))
			ghost = ghost.Union(geometry.FromRects(1, []geometry.Rect{
				geometry.R1(b.Lo.X(), b.Lo.X()+r-1), geometry.R1(b.Hi.X()-r+1, b.Hi.X()),
			}))
			return true
		})
		ghost = ghost.Intersect(in.IndexSpace())
		private := in.IndexSpace().Subtract(ghost)
		top := in.BySubsets("pvg", geometry.NewIndexSpace(geometry.R1(0, 1)),
			map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): private, geometry.Pt1(1): ghost})
		pb := region.Restrict(top.Sub1(0), flat, "PINpriv")
		sb := region.Restrict(top.Sub1(1), flat, "SIN")
		qb := region.Restrict(top.Sub1(1), region.ImageRects(in, flat, "QINflat", halo), "QIN")
		inWriteArgs = []ir.RegionArg{{Part: pb}, {Part: sb}}
		readArgs = []ir.RegionArg{{Part: pb}, {Part: sb}, {Part: qb}}
	}

	stParams := []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{u}}}
	for range readArgs {
		stParams = append(stParams, ir.Param{Priv: ir.PrivRead, Fields: []region.FieldID{u}})
	}
	st := &ir.TaskDecl{Name: "st", Params: stParams, CostPerElem: 200000}
	advParams := make([]ir.Param, len(inWriteArgs))
	for i := range advParams {
		advParams[i] = ir.Param{Priv: ir.PrivReadWrite, Fields: []region.FieldID{u}}
	}
	adv := &ir.TaskDecl{Name: "adv", Params: advParams, CostPerElem: 60000}

	loop := &ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
		&ir.Launch{Task: st, Domain: ir.Colors1D(nt), Args: append([]ir.RegionArg{{Part: pout}}, readArgs...)},
		&ir.Launch{Task: adv, Domain: ir.Colors1D(nt), Args: inWriteArgs},
	}}
	p.Add(loop)
	return p, loop
}

// copyVolume counts the copy ops of a compiled loop body and the elements
// they move per iteration.
func copyVolume(plan *cr.Compiled) (copies int, volume int64) {
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		copies++
		for _, pr := range op.Copy.Pairs {
			volume += pr.Overlap.Volume()
		}
	}
	return copies, volume
}

// TestHierarchyAblationReducesVolume: the private/ghost split of §4.5 takes
// the private data out of the copies, so the hierarchical program moves
// far less than the flat one.
func TestHierarchyAblationReducesVolume(t *testing.T) {
	run := func(hierarchical bool) (int64, int64) {
		prog, loop := stencil1D(8000, 8, 4, hierarchical)
		res := must(t)(bench.RunCR(prog, bench.Config{Nodes: 8, Mode: ir.ExecModeled}))
		_, volume := copyVolume(res.Plans[loop])
		return volume, res.Stats.BytesSent
	}
	flatVol, flatBytes := run(false)
	hierVol, hierBytes := run(true)
	if hierVol*10 > flatVol {
		t.Errorf("hierarchical copy volume %d should be well below flat %d", hierVol, flatVol)
	}
	if hierBytes >= flatBytes {
		t.Errorf("hierarchical bytes %d should be below flat %d", hierBytes, flatBytes)
	}
}

// TestPlacementAblationRemovesCopies: on a program with a redundant
// write-write-read pattern the §3.2 placement passes leave fewer copies,
// moving less, than the naive Figure 4a placement. Both schedules run and
// match the sequential semantics. (Config has no NoPlacementOpt, so this
// row compiles and runs the plans itself.)
func TestPlacementAblationRemovesCopies(t *testing.T) {
	build := func() *progtest.Figure2 {
		f := progtest.NewFigure2(400, 8, 4)
		tf := f.Loop.Body[0].(*ir.Launch)
		dup := &ir.Launch{Task: tf.Task, Domain: tf.Domain, Args: tf.Args, Label: "loopF2"}
		f.Loop.Body = []ir.Stmt{f.Loop.Body[0], dup, f.Loop.Body[1]}
		return f
	}
	run := func(opts cr.Options) (int, int64) {
		f := build()
		opts.NumShards = 8
		plans, err := spmd.CompileAll(f.Prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spmd.New(realm.MustNewSim(realm.DefaultConfig(8)), f.Prog, ir.ExecReal, plans).Run()
		if err != nil {
			t.Fatalf("NoPlacementOpt=%v: %v", opts.NoPlacementOpt, err)
		}
		if err := progtest.Diff(ir.ExecSequential(build().Prog), &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
			t.Errorf("NoPlacementOpt=%v: %v", opts.NoPlacementOpt, err)
		}
		return copyVolume(plans[f.Loop])
	}
	naiveCopies, naiveVol := run(cr.Options{NoPlacementOpt: true})
	optCopies, optVol := run(cr.Options{})
	if optCopies >= naiveCopies {
		t.Errorf("optimized copies %d should be below naive %d", optCopies, naiveCopies)
	}
	if optVol >= naiveVol {
		t.Errorf("optimized volume %d should be below naive %d", optVol, naiveVol)
	}
}

// TestWindowAblationDeeperNotSlower: under noise a deeper shard scheduling
// window absorbs more of the spikes that stall bulk-synchronous codes.
func TestWindowAblationDeeperNotSlower(t *testing.T) {
	run := func(w int) realm.Time {
		prog, loop := stencil1D(16000, 16, 16, true)
		tune := engineTuning(16)
		tune.Window, tune.Noise = w, realm.SpikeNoise(0.05, 0.3, 42)
		per, err := must(t)(bench.RunCR(prog, bench.Config{Nodes: 16, Mode: ir.ExecModeled, Tune: &tune})).SteadyState(loop)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	if run(4) > run(1) {
		t.Error("deeper scheduling window should not be slower under noise")
	}
}
