package stencil

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

func TestFactor2(t *testing.T) {
	cases := []struct {
		n      int
		gx, gy int64
	}{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {12, 4, 3}, {64, 8, 8}, {1024, 32, 32}, {7, 7, 1},
	}
	for _, c := range cases {
		gx, gy := Factor2(c.n)
		if gx != c.gx || gy != c.gy {
			t.Errorf("Factor2(%d) = %d,%d want %d,%d", c.n, gx, gy, c.gx, c.gy)
		}
		if gx*gy != int64(c.n) {
			t.Errorf("Factor2(%d) does not multiply back", c.n)
		}
	}
}

// refStencil computes the expected grid directly.
func refStencil(cfg Config) (in, out [][]float64) {
	gx, gy := Factor2(cfg.Nodes)
	w, h := gx*cfg.TileW, gy*cfg.TileH
	r := cfg.Radius
	in = make([][]float64, w)
	out = make([][]float64, w)
	for x := range in {
		in[x] = make([]float64, h)
		out[x] = make([]float64, h)
		for y := range in[x] {
			in[x][y] = float64(x) + float64(y)*0.5
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		for x := r; x < w-r; x++ {
			for y := r; y < h-r; y++ {
				acc := out[x][y]
				for k := int64(1); k <= r; k++ {
					wk := 1.0 / (2.0 * float64(k) * float64(2*r+1))
					// Term order matches the task kernel exactly so the
					// comparison is bitwise.
					acc += wk * in[x+k][y]
					acc += wk * in[x-k][y]
					acc += wk * in[x][y+k]
					acc += wk * in[x][y-k]
				}
				out[x][y] = acc
			}
		}
		for x := int64(0); x < w; x++ {
			for y := int64(0); y < h; y++ {
				in[x][y]++
			}
		}
	}
	return in, out
}

func TestSequentialMatchesReference(t *testing.T) {
	cfg := Small(4)
	app := Build(cfg)
	res := ir.ExecSequential(app.Prog)
	wantIn, wantOut := refStencil(cfg)
	app.In.IndexSpace().Each(func(pt geometry.Point) bool {
		if got := res.Stores[app.In].Get(app.XIn, pt); got != wantIn[pt.X()][pt.Y()] {
			t.Fatalf("in[%v] = %v, want %v", pt, got, wantIn[pt.X()][pt.Y()])
		}
		if got := res.Stores[app.Out].Get(app.XOut, pt); got != wantOut[pt.X()][pt.Y()] {
			t.Fatalf("out[%v] = %v, want %v", pt, got, wantOut[pt.X()][pt.Y()])
		}
		return true
	})
}

func TestCRMatchesSequential(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 6} {
		res, err := bench.RunCR(Build(Small(nodes)).Prog, bench.Config{Nodes: nodes})
		if err == nil {
			err = progtest.Diff(ir.ExecSequential(Build(Small(nodes)).Prog), res.SeqResult)
		}
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
	}
}

func TestImplicitMatchesSequential(t *testing.T) {
	res, err := bench.RunImplicit(Build(Small(4)).Prog, bench.Config{Nodes: 4})
	if err == nil {
		err = progtest.Diff(ir.ExecSequential(Build(Small(4)).Prog), res.SeqResult)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompiledShapeNoPrivateCopies(t *testing.T) {
	app := Build(Small(4))
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one copy: SIN -> QIN after the add launch (§4.5: the private
	// partition provably needs no copies).
	var copies []*cr.CopyOp
	for _, op := range plan.Body {
		if op.Copy != nil {
			copies = append(copies, op.Copy)
		}
	}
	if len(copies) != 1 {
		t.Fatalf("copies = %d, want 1", len(copies))
	}
	if copies[0].Src != app.SIn || copies[0].Dst != app.QIn {
		t.Errorf("copy = %v, want SIN->QIN", copies[0])
	}
	for _, pr := range copies[0].Pairs {
		if pr.Src == pr.Dst {
			t.Errorf("self pair %v in halo exchange", pr)
		}
	}
}

func TestHaloVolumeMatchesExpectation(t *testing.T) {
	// Copy volume = sum over internal edges of 2 strips of radius*edgeLen.
	cfg := Small(4) // 2x2 tiles
	app := Build(cfg)
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var vol int64
	for _, op := range plan.Body {
		if op.Copy != nil {
			for _, pr := range op.Copy.Pairs {
				vol += pr.Overlap.Volume()
			}
		}
	}
	gx, gy := Factor2(cfg.Nodes)
	w, h := gx*cfg.TileW, gy*cfg.TileH
	want := (gx-1)*h*cfg.Radius*2 + (gy-1)*w*cfg.Radius*2
	if vol != want {
		t.Errorf("halo volume = %d, want %d", vol, want)
	}
}

func TestBuildRejectsTinyTiles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for tiles below stencil diameter")
		}
	}()
	Build(Config{Nodes: 1, TileW: 3, TileH: 3, Radius: 2, Iters: 1})
}

func TestBarrierSyncMatchesSequential(t *testing.T) {
	res, err := bench.RunCR(Build(Small(4)).Prog, bench.Config{Nodes: 4, Sync: cr.BarrierSync})
	if err == nil {
		err = progtest.Diff(ir.ExecSequential(Build(Small(4)).Prog), res.SeqResult)
	}
	if err != nil {
		t.Fatalf("barrier-sync stencil diverged: %v", err)
	}
}

// TestCrashRecoveryMatchesGolden: a stencil run with an injected node
// crash, recovered through the SPMD executor's checkpoint/restart, must
// produce region contents bitwise-identical to the fault-free golden run.
func TestCrashRecoveryMatchesGolden(t *testing.T) {
	cfg := Small(4)
	cfg.Iters = 6 // several checkpoint epochs
	run := bench.Config{Nodes: 4, Recov: spmd.Recovery{CheckpointEvery: 2, MaxRetries: 3, Backoff: realm.Microseconds(50)}}
	golden, err := bench.RunCR(Build(cfg).Prog, run)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 launches two tasks in each of the 6 iterations; it dies at
	// its 6th launch, in the middle of the run.
	run.Faults = &realm.FaultPlan{LaunchCrashes: []realm.LaunchCrash{{Node: 2, AtLaunch: 6}}}
	res, err := bench.RunCR(Build(cfg).Prog, run)
	if err != nil {
		t.Fatalf("faulty run failed: %v", err)
	}
	if res.Faults == nil || len(res.Faults.Crashes) != 1 || res.Faults.Restarts < 1 || res.Faults.Unrecovered {
		t.Fatalf("fault report = %+v, want one recovered crash", res.Faults)
	}
	if err := progtest.Diff(golden.SeqResult, res.SeqResult); err != nil {
		t.Fatalf("stores differ from the fault-free golden after recovery: %v", err)
	}
}
