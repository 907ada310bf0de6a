package pennant

import (
	"math"
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
	"repro/internal/spmd"
)

func TestMeshPartitioning(t *testing.T) {
	app := Build(Small(4)) // 2x2 pieces
	cfg := app.Cfg
	if app.Gx != 2 || app.Gy != 2 {
		t.Fatalf("piece grid = %dx%d", app.Gx, app.Gy)
	}
	// Private+shared cover all points disjointly.
	var vol int64
	app.PvtP.Each(func(c geometry.Point, sub *region.Region) bool {
		sh := app.ShrP.Sub(c).IndexSpace()
		if sub.IndexSpace().Overlaps(sh) {
			t.Fatalf("piece %v: private and shared points overlap", c)
		}
		vol += sub.Volume() + sh.Volume()
		return true
	})
	if vol != app.Points.Volume() {
		t.Fatalf("pvt+shr volume %d, want %d", vol, app.Points.Volume())
	}
	// The interior 4-way corner point (ZW, ZH) is owned by piece (1,1) and
	// ghosted by the other three pieces.
	corner := geometry.Pt2(cfg.ZW, cfg.ZH)
	if owned := app.ShrP.Sub(geometry.Pt2(1, 1)).IndexSpace(); !owned.Contains(corner) {
		t.Error("corner point should be owned (shared) by piece (1,1)")
	}
	ghosted := 0
	app.GhostP.Each(func(c geometry.Point, sub *region.Region) bool {
		if ghost := sub.IndexSpace(); ghost.Contains(corner) {
			ghosted++
		}
		return true
	})
	if ghosted != 3 {
		t.Errorf("corner point ghosted by %d pieces, want 3 (four-way sharing)", ghosted)
	}
	// Ghosts never include owned points and lie inside the shared lines.
	app.GhostP.Each(func(c geometry.Point, sub *region.Region) bool {
		if sub.IndexSpace().Overlaps(app.PvtP.Sub(c).IndexSpace()) ||
			sub.IndexSpace().Overlaps(app.ShrP.Sub(c).IndexSpace()) {
			t.Fatalf("piece %v: ghost overlaps its own points", c)
		}
		return true
	})
	// §4.5 tree facts.
	if region.PartitionsMayAlias(app.PvtP, app.GhostP) {
		t.Error("private points must be provably disjoint from ghosts")
	}
	if !region.PartitionsMayAlias(app.ShrP, app.GhostP) {
		t.Error("shared and ghost points may alias")
	}
}

func TestSequentialPhysicsSanity(t *testing.T) {
	app := Build(Small(2))
	res := ir.ExecSequential(app.Prog)
	zst := res.Stores[app.Zones]
	app.Zones.IndexSpace().Each(func(zp geometry.Point) bool {
		v := zst.Get(app.ZVol, zp)
		if v < 0.5 || v > 1.5 {
			t.Fatalf("zone %v volume %v out of range", zp, v)
		}
		if zst.Get(app.Rho, zp) <= 0 || zst.Get(app.Press, zp) <= 0 {
			t.Fatalf("zone %v has non-positive rho/press", zp)
		}
		return true
	})
	dt := res.Env["dt"]
	if !(dt > 0) || math.IsInf(dt, 0) {
		t.Fatalf("dt = %v", dt)
	}
	pst := res.Stores[app.Points]
	if pst.Get(app.FX, geometry.Pt2(0, 0)) != 0 {
		t.Errorf("fx should be reset by the advance phase")
	}
}

func TestSinglePieceMatchesDirectReference(t *testing.T) {
	// With one piece there is no sharing; a direct array implementation
	// following the same kernel order must agree bitwise.
	cfg := Small(1)
	app := Build(cfg)
	res := ir.ExecSequential(app.Prog)

	zx, zy := cfg.ZW, cfg.ZH
	type pmesh struct{ px, py, vx, vy, fx, fy float64 }
	pts := make([][]pmesh, zx+1)
	for x := range pts {
		pts[x] = make([]pmesh, zy+1)
		for y := range pts[x] {
			pts[x][y].px = float64(x) + 0.01*float64((int64(x)+2*int64(y))%5)
			pts[x][y].py = float64(y) + 0.01*float64((2*int64(x)+int64(y))%3)
		}
	}
	e := make([][]float64, zx)
	zvol := make([][]float64, zx)
	rhoA := make([][]float64, zx)
	pressA := make([][]float64, zx)
	for x := range e {
		e[x] = make([]float64, zy)
		zvol[x] = make([]float64, zy)
		rhoA[x] = make([]float64, zy)
		pressA[x] = make([]float64, zy)
		for y := range e[x] {
			e[x][y] = 1 + 0.1*float64((int64(x)+3*int64(y))%9)
		}
	}
	type pix struct{ x, y int64 }
	cornersOf := func(x, y int64) [4]pix {
		return [4]pix{{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}}
	}
	dt := 1e-6
	for it := 0; it < cfg.Iters; it++ {
		for x := int64(0); x < zx; x++ {
			for y := int64(0); y < zy; y++ {
				cs := cornersOf(x, y)
				area := 0.0
				for k := 0; k < 4; k++ {
					a, b := cs[k], cs[(k+1)%4]
					area += pts[a.x][a.y].px*pts[b.x][b.y].py - pts[b.x][b.y].px*pts[a.x][a.y].py
				}
				zvol[x][y] = 0.5 * area
				rhoA[x][y] = 1 / zvol[x][y]
				pressA[x][y] = 0.4 * rhoA[x][y] * e[x][y]
			}
		}
		dirs := [4][2]float64{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
		for x := int64(0); x < zx; x++ {
			for y := int64(0); y < zy; y++ {
				cs := cornersOf(x, y)
				for k := 0; k < 4; k++ {
					pts[cs[k].x][cs[k].y].fx += 0.25 * pressA[x][y] * dirs[k][0]
					pts[cs[k].x][cs[k].y].fy += 0.25 * pressA[x][y] * dirs[k][1]
				}
			}
		}
		for x := int64(0); x <= zx; x++ {
			for y := int64(0); y <= zy; y++ {
				p := &pts[x][y]
				p.vx += dt * p.fx
				p.vy += dt * p.fy
				p.px += dt * p.vx
				p.py += dt * p.vy
				p.fx, p.fy = 0, 0
			}
		}
		cand := math.Inf(1)
		for x := int64(0); x < zx; x++ {
			for y := int64(0); y < zy; y++ {
				c := 1e-3 * zvol[x][y] / (1 + rhoA[x][y])
				if c < cand {
					cand = c
				}
			}
		}
		dt = cand
	}

	pst := res.Stores[app.Points]
	for x := int64(0); x <= zx; x++ {
		for y := int64(0); y <= zy; y++ {
			pt := geometry.Pt2(x, y)
			if got := pst.Get(app.PX, pt); got != pts[x][y].px {
				t.Fatalf("px[%d,%d] = %v, want %v", x, y, got, pts[x][y].px)
			}
			if got := pst.Get(app.VY, pt); got != pts[x][y].vy {
				t.Fatalf("vy[%d,%d] = %v, want %v", x, y, got, pts[x][y].vy)
			}
		}
	}
	if res.Env["dt"] != dt {
		t.Fatalf("dt = %v, want %v", res.Env["dt"], dt)
	}
}

func TestCRMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		pieces int
		sync   cr.SyncMode
	}{
		{2, cr.PointToPoint},
		{4, cr.PointToPoint}, // 2x2: four-way corner sharing
		{4, cr.BarrierSync},
		{6, cr.PointToPoint}, // 3x2
	} {
		app := Build(Small(tc.pieces))
		seq := ir.ExecSequential(app.Prog)

		app2 := Build(Small(tc.pieces))
		plans, err := spmd.CompileAll(app2.Prog, cr.Options{NumShards: tc.pieces, Sync: tc.sync})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(realm.DefaultConfig(tc.pieces))
		res, err := spmd.New(sim, app2.Prog, ir.ExecReal, plans).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []region.FieldID{app.PX, app.PY, app.VX, app.VY} {
			if !res.Stores[app2.Points].EqualOn(seq.Stores[app.Points], f, app.Points.IndexSpace()) {
				t.Fatalf("pieces=%d sync=%v: point field %d mismatch", tc.pieces, tc.sync, f)
			}
		}
		for _, f := range []region.FieldID{app.ZVol, app.Rho, app.Press} {
			if !res.Stores[app2.Zones].EqualOn(seq.Stores[app.Zones], f, app.Zones.IndexSpace()) {
				t.Fatalf("pieces=%d sync=%v: zone field %d mismatch", tc.pieces, tc.sync, f)
			}
		}
		if res.Env["dt"] != seq.Env["dt"] {
			t.Fatalf("pieces=%d sync=%v: dt %v != %v", tc.pieces, tc.sync, res.Env["dt"], seq.Env["dt"])
		}
	}
}

func TestImplicitMatchesSequential(t *testing.T) {
	app := Build(Small(4))
	seq := ir.ExecSequential(app.Prog)
	app2 := Build(Small(4))
	sim := realm.MustNewSim(realm.DefaultConfig(4))
	res, err := rt.New(sim, app2.Prog, ir.ExecReal).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[app2.Points].EqualOn(seq.Stores[app.Points], app.PX, app.Points.IndexSpace()) {
		t.Fatal("px mismatch")
	}
	if res.Env["dt"] != seq.Env["dt"] {
		t.Fatalf("dt %v != %v", res.Env["dt"], seq.Env["dt"])
	}
}

func TestCompiledShape(t *testing.T) {
	app := Build(Small(4))
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var plain, reduce int
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		if op.Copy.Src == app.PvtP && op.Copy.Reduce == region.ReduceNone {
			t.Errorf("plain copy from private points: %v", op.Copy)
		}
		if op.Copy.Reduce == region.ReduceNone {
			plain++
		} else {
			reduce++
		}
	}
	if plain == 0 {
		t.Error("expected a shared->ghost position copy")
	}
	if reduce == 0 {
		t.Error("expected corner-force reduction copies")
	}
	// Corner points make the ghost-ghost intersection graph four-way: each
	// interior piece corner appears in three ghost sets, so the GHOST->SHR
	// reduction copies include corner-crossing pairs (diagonal neighbors).
	var diag bool
	for _, op := range plan.Body {
		if op.Copy == nil || op.Copy.Reduce == region.ReduceNone || op.Copy.Src != app.GhostP {
			continue
		}
		for _, pr := range op.Copy.Pairs {
			dx := pr.Src.X() - pr.Dst.X()
			dy := pr.Src.Y() - pr.Dst.Y()
			if dx != 0 && dy != 0 {
				diag = true
			}
		}
	}
	if !diag {
		t.Error("expected diagonal (corner) reduction pairs in the 2-D decomposition")
	}
}
