package miniaero

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/region"
)

func TestFactor3(t *testing.T) {
	cases := []struct{ n, a, b, c int64 }{
		{1, 1, 1, 1}, {2, 2, 1, 1}, {8, 2, 2, 2}, {12, 3, 2, 2}, {64, 4, 4, 4}, {1024, 16, 8, 8}, {7, 7, 1, 1},
	}
	for _, tc := range cases {
		a, b, c := Factor3(tc.n)
		if a*b*c != tc.n || a < b || b < c {
			t.Errorf("Factor3(%d) = %d,%d,%d", tc.n, a, b, c)
		}
		if a != tc.a || b != tc.b || c != tc.c {
			t.Errorf("Factor3(%d) = %d,%d,%d, want %d,%d,%d", tc.n, a, b, c, tc.a, tc.b, tc.c)
		}
	}
}

func TestMeshPartitioning(t *testing.T) {
	app := Build(Config{Pieces: 8, W: 3, H: 2, D: 2, Iters: 1}) // 2x2x2 pieces
	if app.Px != 2 || app.Py != 2 || app.Pz != 2 {
		t.Fatalf("piece grid = %dx%dx%d", app.Px, app.Py, app.Pz)
	}
	cfg := app.Cfg
	c := cfg.W * cfg.H * cfg.D
	var vol int64
	for i := int64(0); i < 8; i++ {
		pv := app.PvtC.Sub1(i).IndexSpace()
		sh := app.ShrC.Sub1(i).IndexSpace()
		own := geometry.NewIndexSpace(geometry.R1(i*c, (i+1)*c-1))
		if pv.Overlaps(sh) {
			t.Fatalf("piece %d: private/shared overlap", i)
		}
		if !own.ContainsAll(pv) || !own.ContainsAll(sh) {
			t.Fatalf("piece %d: pvt/shr escape the piece's cells", i)
		}
		vol += pv.Volume() + sh.Volume()
		// Every 2x2x2-corner piece has 3 neighbors: shared = own minus the
		// interior block (W-1)(H-1)(D-1); here the "interior" after removing
		// the 3 adjacent faces is 2x1x1.
		if sh.Volume() != c-2 {
			t.Errorf("piece %d shared volume = %d, want %d", i, sh.Volume(), c-2)
		}
		gh := app.GhostC.Sub1(i).IndexSpace()
		if gh.Overlaps(own) {
			t.Fatalf("piece %d: ghost overlaps own cells", i)
		}
		// 3 neighbor faces: H*D + W*D + W*H ghost cells.
		wantGh := cfg.H*cfg.D + cfg.W*cfg.D + cfg.W*cfg.H
		if gh.Volume() != wantGh {
			t.Errorf("piece %d ghost volume = %d, want %d", i, gh.Volume(), wantGh)
		}
	}
	if vol != app.Cells.Volume() {
		t.Fatalf("pvt+shr = %d, want %d", vol, app.Cells.Volume())
	}
	if region.PartitionsMayAlias(app.PvtC, app.GhostC) {
		t.Error("private cells must be provably disjoint from ghosts")
	}
	if !region.PartitionsMayAlias(app.ShrC, app.GhostC) {
		t.Error("shared and ghost cells may alias")
	}
}

// refMiniAero runs the RK4 scheme on flat arrays, deriving neighbors from
// global coordinates — an independent formulation of the same mesh.
func refMiniAero(cfg Config) []float64 {
	px, py, pz := Factor3(int64(cfg.Pieces))
	c := cfg.W * cfg.H * cfg.D
	n := px * py * pz * c
	gw, gh, gd := px*cfg.W, py*cfg.H, pz*cfg.D

	// Map global coordinates to the piece-major cell id.
	id := func(gx, gy, gz int64) int64 {
		pa, la := gx/cfg.W, gx%cfg.W
		pb, lb := gy/cfg.H, gy%cfg.H
		pc, lc := gz/cfg.D, gz%cfg.D
		piece := pa*(py*pz) + pb*pz + pc
		return piece*c + la*(cfg.H*cfg.D) + lb*cfg.D + lc
	}

	u := make([]float64, n)
	u0 := make([]float64, n)
	r := make([]float64, n)
	for i := int64(0); i < n; i++ {
		u[i] = 1 + 0.25*float64(i%13)
	}
	dt := 1e-3
	for it := 0; it < cfg.Iters; it++ {
		copy(u0, u)
		for s := 0; s < 4; s++ {
			for gx := int64(0); gx < gw; gx++ {
				for gy := int64(0); gy < gh; gy++ {
					for gz := int64(0); gz < gd; gz++ {
						me := id(gx, gy, gz)
						acc := 0.0
						if gx > 0 {
							acc += u[id(gx-1, gy, gz)] - u[me]
						}
						if gx < gw-1 {
							acc += u[id(gx+1, gy, gz)] - u[me]
						}
						if gy > 0 {
							acc += u[id(gx, gy-1, gz)] - u[me]
						}
						if gy < gh-1 {
							acc += u[id(gx, gy+1, gz)] - u[me]
						}
						if gz > 0 {
							acc += u[id(gx, gy, gz-1)] - u[me]
						}
						if gz < gd-1 {
							acc += u[id(gx, gy, gz+1)] - u[me]
						}
						r[me] = 0.1 * acc
					}
				}
			}
			for i := int64(0); i < n; i++ {
				u[i] = u0[i] + rkAlpha[s]*dt*r[i]
			}
		}
	}
	return u
}

func TestSequentialMatchesReference(t *testing.T) {
	for _, pieces := range []int{1, 2, 4, 8} {
		cfg := Small(pieces)
		app := Build(cfg)
		res := ir.ExecSequential(app.Prog)
		want := refMiniAero(cfg)
		st := res.Stores[app.Cells]
		bad := 0
		app.Cells.IndexSpace().Each(func(pt geometry.Point) bool {
			if got := st.Get(app.U, pt); got != want[pt.X()] {
				if bad < 4 {
					t.Errorf("pieces=%d: u[%d] = %v, want %v", pieces, pt.X(), got, want[pt.X()])
				}
				bad++
			}
			return true
		})
		if bad > 0 {
			t.Fatalf("pieces=%d: %d cells differ", pieces, bad)
		}
	}
}

func TestCRMatchesSequential(t *testing.T) {
	for _, pieces := range []int{1, 2, 4, 8} {
		res, err := bench.RunCR(Build(Small(pieces)).Prog, bench.Config{Nodes: pieces})
		if err == nil {
			err = progtest.Diff(ir.ExecSequential(Build(Small(pieces)).Prog), res.SeqResult)
		}
		if err != nil {
			t.Fatalf("pieces=%d: %v", pieces, err)
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

func TestCompiledShape(t *testing.T) {
	app := Build(Small(4))
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One SHR->GHOST u exchange per RK stage; no copies involve private
	// cells, and none carry u0 (ghosts never read it).
	copies := 0
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		copies++
		if op.Copy.Src != app.ShrC || op.Copy.Dst != app.GhostC {
			t.Errorf("unexpected copy %v", op.Copy)
		}
		for _, f := range op.Copy.Fields {
			if f == app.U0 {
				t.Error("u0 must not be exchanged")
			}
		}
	}
	if copies != 4 {
		t.Errorf("copies = %d, want 4 (one per RK stage)", copies)
	}
}

func TestBarrierSyncMatchesSequential(t *testing.T) {
	res, err := bench.RunCR(Build(Small(8)).Prog, bench.Config{Nodes: 8, Sync: cr.BarrierSync})
	if err == nil {
		err = progtest.Diff(ir.ExecSequential(Build(Small(8)).Prog), res.SeqResult)
	}
	if err != nil {
		t.Fatalf("barrier-sync miniaero diverged: %v", err)
	}
}

// TestFluxAllocationsDoNotGrowWithCells: compute_flux, the kernel that
// looks up six neighbours per cell per RK stage, allocates nothing per
// cell — the same count for 12-cell and 2048-cell pieces.
func TestFluxAllocationsDoNotGrowWithCells(t *testing.T) {
	allocs := func(cfg Config) float64 {
		app := Build(cfg)
		stores := make(map[*region.Region]*region.Store)
		for root, fs := range app.Prog.FieldSpaces {
			stores[root] = region.NewStore(root.IndexSpace(), fs)
		}
		var flux *ir.Launch
		for _, s := range app.Loop.Body {
			if l := s.(*ir.Launch); l.Label == "compute_flux" {
				flux = l
				break
			}
		}
		args := &ir.RootArgs{Stores: stores}
		return testing.AllocsPerRun(5, func() {
			ctx, _ := args.Ctx(flux, 0, nil)
			flux.Task.Kernel(ctx)
		})
	}
	small, large := allocs(Small(8)), allocs(Default(8))
	if small != large {
		t.Errorf("compute_flux allocates %v times per run on 12-cell pieces, %v on 2048-cell pieces", small, large)
	}
}
