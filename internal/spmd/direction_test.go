package spmd

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
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

// loopMetrics is what a direction test compares between two configurations.
type loopMetrics struct {
	copies    int        // copy ops in the compiled loop body
	volume    int64      // elements those copies move per iteration
	perIter   realm.Time // steady-state virtual time per iteration
	bytesSent int64
}

// measureLoop compiles the loop with opts, one shard per node, runs it in
// Modeled mode (window 0 = the engine's default) and collects the metrics.
func measureLoop(t *testing.T, prog *ir.Program, loop *ir.Loop, nodes int, opts cr.Options, window int, noise realm.NoiseFn) loopMetrics {
	t.Helper()
	opts.NumShards = nodes
	plan, err := cr.Compile(prog, loop, opts)
	if err != nil {
		t.Fatal(err)
	}
	var m loopMetrics
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		m.copies++
		for _, pr := range op.Copy.Pairs {
			m.volume += pr.Overlap.Volume()
		}
	}
	eng := New(realm.MustNewSim(realm.DefaultConfig(nodes)), prog, ir.ExecModeled, map[*ir.Loop]*cr.Compiled{loop: plan})
	if window > 0 {
		eng.Over.Window = window
	}
	eng.Over.Noise = noise
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	times := res.IterTimes[loop]
	skip := len(times) / 4
	if skip < 1 {
		skip = 1
	}
	m.perIter = (times[len(times)-1] - times[skip]) / realm.Time(len(times)-1-skip)
	m.bytesSent = res.Stats.BytesSent
	return m
}

// TestHierarchyAblationReducesVolume: the private/ghost split of §4.5 takes
// the private data out of the copies, so the hierarchical program moves
// far less than the flat one.
func TestHierarchyAblationReducesVolume(t *testing.T) {
	progF, loopF := stencil1D(8000, 8, 4, false)
	flat := measureLoop(t, progF, loopF, 8, cr.Options{}, 0, nil)
	progH, loopH := stencil1D(8000, 8, 4, true)
	hier := measureLoop(t, progH, loopH, 8, cr.Options{}, 0, nil)
	if hier.volume*10 > flat.volume {
		t.Errorf("hierarchical copy volume %d should be well below flat %d", hier.volume, flat.volume)
	}
	if hier.bytesSent >= flat.bytesSent {
		t.Errorf("hierarchical bytes %d should be below flat %d", hier.bytesSent, flat.bytesSent)
	}
}

// TestPlacementAblationRemovesCopies: on a program with a redundant
// write-write-read pattern the §3.2 placement passes leave fewer copies,
// moving less, than the naive Figure 4a placement.
func TestPlacementAblationRemovesCopies(t *testing.T) {
	build := func() (*ir.Program, *ir.Loop) {
		f := progtest.NewFigure2(400, 8, 4)
		tf := f.Loop.Body[0].(*ir.Launch)
		dup := &ir.Launch{Task: tf.Task, Domain: tf.Domain, Args: tf.Args, Label: "loopF2"}
		f.Loop.Body = []ir.Stmt{f.Loop.Body[0], dup, f.Loop.Body[1]}
		return f.Prog, f.Loop
	}
	progN, loopN := build()
	naive := measureLoop(t, progN, loopN, 8, cr.Options{NoPlacementOpt: true}, 0, nil)
	progO, loopO := build()
	opt := measureLoop(t, progO, loopO, 8, cr.Options{}, 0, nil)
	if opt.copies >= naive.copies {
		t.Errorf("optimized copies %d should be below naive %d", opt.copies, naive.copies)
	}
	if opt.volume >= naive.volume {
		t.Errorf("optimized volume %d should be below naive %d", opt.volume, naive.volume)
	}
}

// TestWindowAblationDeeperNotSlower: under noise a deeper shard scheduling
// window absorbs more of the spikes that stall bulk-synchronous codes.
func TestWindowAblationDeeperNotSlower(t *testing.T) {
	noise := realm.SpikeNoise(0.05, 0.3, 42)
	run := func(w int) realm.Time {
		prog, loop := stencil1D(16000, 16, 16, true)
		return measureLoop(t, prog, loop, 16, cr.Options{}, w, noise).perIter
	}
	if run(4) > run(1) {
		t.Error("deeper scheduling window should not be slower under noise")
	}
}
