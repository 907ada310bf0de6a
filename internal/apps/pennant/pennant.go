// Package pennant is the Lagrangian hydrodynamics proxy of the paper's
// §5.3 (Figure 8), modeled on LANL's PENNANT: a 2-D staggered mesh of zones
// and points where each cycle computes zone volumes/densities/pressures
// from point positions, scatters corner forces from zones to points (a
// sum-reduction into shared and ghost points), advances point positions,
// and min-reduces the next time step dt across all zones — the dynamic
// time-stepping scalar reduction of §4.4.
//
// The mesh is a logically rectangular quad mesh decomposed over a 2-D grid
// of pieces; points on piece boundaries are shared between two pieces along
// edges and four pieces at piece corners, giving the private/shared/ghost
// point hierarchy of §4.5 with multi-way reduction traffic at the corners.
package pennant

import (
	"math"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Config sizes one run: each piece owns ZW x ZH zones, arranged on the
// most-square piece grid. The paper runs 7.4M zones per node; the benchmark
// configuration scales element counts down and per-element costs up (see
// EXPERIMENTS.md).
type Config struct {
	Pieces int
	ZW, ZH int64 // zones per piece in x and y
	Iters  int
}

// Default returns the benchmark configuration.
func Default(pieces int) Config {
	return Config{Pieces: pieces, ZW: 80, ZH: 60, Iters: 12}
}

// Small returns a correctness-testing configuration.
func Small(pieces int) Config {
	return Config{Pieces: pieces, ZW: 4, ZH: 3, Iters: 3}
}

// PaperZonesPerNode is the paper's per-node zone count, the basis of the
// throughput unit (zones/s per node).
const PaperZonesPerNode = 7.4e6

// Calibrated per-element virtual costs in nanoseconds (one core); each
// scaled-down zone stands for ~1540 paper zones.
const (
	zcalcCostPerZone  = 448000.0
	cforceCostPerZone = 448000.0
	advanceCostPerPt  = 156000.0
	calcdtCostPerZone = 71000.0
)

// App is a built PENNANT program.
type App struct {
	Cfg    Config
	Gx, Gy int64
	Prog   *ir.Program
	Loop   *ir.Loop
	Zones  *region.Region
	Points *region.Region

	ZVol, Rho, Press, E, ZMass         region.FieldID
	PX, PY, VX, VY, FX, FY, PMass      region.FieldID
	PZone                              *region.Partition
	PvtP, ShrP, GhostP                 *region.Partition
	ZCalc, CForce, Advance, CalcDtTask *ir.TaskDecl
}

// Build constructs the mesh and the implicitly parallel program.
func Build(cfg Config) *App {
	app := &App{Cfg: cfg}
	p := ir.NewProgram("pennant")
	app.Prog = p

	gx, gy := geometry.Factor2(int64(cfg.Pieces))
	app.Gx, app.Gy = gx, gy
	zx, zy := gx*cfg.ZW, gy*cfg.ZH // global zones

	fsZ := region.NewFieldSpace("zvol", "rho", "press", "e", "zmass")
	fsP := region.NewFieldSpace("px", "py", "vx", "vy", "fx", "fy", "pmass")
	app.ZVol, app.Rho, app.Press = fsZ.Field("zvol"), fsZ.Field("rho"), fsZ.Field("press")
	app.E, app.ZMass = fsZ.Field("e"), fsZ.Field("zmass")
	app.PX, app.PY = fsP.Field("px"), fsP.Field("py")
	app.VX, app.VY = fsP.Field("vx"), fsP.Field("vy")
	app.FX, app.FY = fsP.Field("fx"), fsP.Field("fy")
	app.PMass = fsP.Field("pmass")

	app.Zones = p.Tree.NewRegion("ZONES", geometry.NewIndexSpace(geometry.R2(0, 0, zx-1, zy-1)))
	app.Points = p.Tree.NewRegion("POINTS", geometry.NewIndexSpace(geometry.R2(0, 0, zx, zy)))
	p.FieldSpaces[app.Zones] = fsZ
	p.FieldSpaces[app.Points] = fsP

	app.PZone = app.Zones.Block2D("PZONE", gx, gy)

	// Shared points: the internal piece gridlines (width-1 bands), built as
	// disjoint rectangles — vertical lines full height, horizontal line
	// segments between them. Points on line crossings are shared by four
	// pieces.
	var sharedRects []geometry.Rect
	var xSegs []geometry.Rect // x-extents not covered by vertical lines
	prevEnd := int64(0)
	for i := int64(1); i < gx; i++ {
		x := i * cfg.ZW
		sharedRects = append(sharedRects, geometry.R2(x, 0, x, zy))
		xSegs = append(xSegs, geometry.R1(prevEnd, x-1))
		prevEnd = x + 1
	}
	xSegs = append(xSegs, geometry.R1(prevEnd, zx))
	for j := int64(1); j < gy; j++ {
		y := j * cfg.ZH
		for _, seg := range xSegs {
			sharedRects = append(sharedRects, geometry.R2(seg.Lo.X(), y, seg.Hi.X(), y))
		}
	}
	allSharedIs := geometry.FromDisjointRects(2, sharedRects)

	top := app.Points.BySubsetsUnchecked("private_v_shared", geometry.NewIndexSpace(geometry.R1(0, 1)),
		map[geometry.Point]geometry.IndexSpace{
			geometry.Pt1(0): app.Points.IndexSpace().Subtract(allSharedIs),
			geometry.Pt1(1): allSharedIs,
		}, true, true)
	allPrivate, allShared := top.Sub1(0), top.Sub1(1)

	// Per-piece point sets. Piece (px,py) owns the points of its zone tile's
	// low-left closure: columns [px*ZW, (px+1)*ZW-1] (the right boundary
	// column belongs to the right neighbor; the last piece also owns the
	// final column), rows likewise. Its ghost is the remainder of its
	// footprint: the right column, the top row, and the corner.
	colorSpace := geometry.NewIndexSpace(geometry.R2(0, 0, gx-1, gy-1))
	pvtSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	shrSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	ghSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	colorSpace.Each(func(c geometry.Point) bool {
		px, py := c.X(), c.Y()
		x0, y0 := px*cfg.ZW, py*cfg.ZH
		xe, ye := (px+1)*cfg.ZW, (py+1)*cfg.ZH // footprint high edges
		x1, y1 := xe-1, ye-1                   // owned high edges
		if px == gx-1 {
			x1 = zx
		}
		if py == gy-1 {
			y1 = zy
		}
		owned := geometry.NewIndexSpace(geometry.R2(x0, y0, x1, y1))
		shr := owned.Intersect(allSharedIs)
		pvtSubs[c] = owned.Subtract(shr)
		shrSubs[c] = shr
		var ghostRects []geometry.Rect
		if x1 < xe { // right boundary column (including the corner point)
			ghostRects = append(ghostRects, geometry.R2(xe, y0, xe, min(ye, zy)))
		}
		if y1 < ye { // top boundary row (excluding the corner column)
			ghostRects = append(ghostRects, geometry.R2(x0, ye, x1, ye))
		}
		ghSubs[c] = geometry.FromDisjointRects(2, ghostRects)
		return true
	})
	app.PvtP = allPrivate.BySubsetsUnchecked("PVT", colorSpace, pvtSubs, true, true)
	app.ShrP = allShared.BySubsetsUnchecked("SHR", colorSpace, shrSubs, true, true)
	app.GhostP = allShared.BySubsetsUnchecked("GHOST", colorSpace, ghSubs, false, false)

	app.buildTasks()
	return app
}

// buildTasks defines the four phases and the cycle loop.
func (app *App) buildTasks() {
	zvol, rho, press, e0, zmass := app.ZVol, app.Rho, app.Press, app.E, app.ZMass
	px, py, vx, vy, fx, fy, pmass := app.PX, app.PY, app.VX, app.VY, app.FX, app.FY, app.PMass

	// Zone (zx,zy) has corners at the four surrounding grid points, in
	// counter-clockwise order.
	corners := func(z geometry.Point) [4]geometry.Point {
		x, y := z.X(), z.Y()
		return [4]geometry.Point{
			geometry.Pt2(x, y), geometry.Pt2(x+1, y), geometry.Pt2(x+1, y+1), geometry.Pt2(x, y+1),
		}
	}

	app.ZCalc = &ir.TaskDecl{
		Name: "zone_calcs",
		Params: []ir.Param{
			{Name: "zones", Priv: ir.PrivReadWrite, Fields: []region.FieldID{zvol, rho, press, e0, zmass}},
			{Name: "pvt", Priv: ir.PrivRead, Fields: []region.FieldID{px, py}},
			{Name: "shr", Priv: ir.PrivRead, Fields: []region.FieldID{px, py}},
			{Name: "ghost", Priv: ir.PrivRead, Fields: []region.FieldID{px, py}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			vol, dens, pres := tc.Writer(zvol, 0, 1), tc.Writer(rho, 0, 1), tc.Writer(press, 0, 1)
			energy, mass := tc.Reader(e0, 0, 1), tc.Reader(zmass, 0, 1)
			ptx, pty := tc.Reader(px, 1, 3), tc.Reader(py, 1, 3) // private, shared, ghost
			tc.Rows(0, func(row ir.Row) {
				vols, rhos, ps, es, ms := vol.Row(row), dens.Row(row), pres.Row(row), energy.Row(row), mass.Row(row)
				for i := range vols {
					cs := corners(row.Point(i))
					// Shoelace area of the quad.
					area := 0.0
					for k := 0; k < 4; k++ {
						x1 := ptx.Get(cs[k])
						y1 := pty.Get(cs[k])
						x2 := ptx.Get(cs[(k+1)%4])
						y2 := pty.Get(cs[(k+1)%4])
						area += x1*y2 - x2*y1
					}
					v := 0.5 * area
					vols[i] = v
					r := ms[i] / v
					rhos[i] = r
					ps[i] = 0.4 * r * es[i]
				}
			})
		},
		CostPerElem: zcalcCostPerZone,
	}

	app.CForce = &ir.TaskDecl{
		Name: "corner_forces",
		Params: []ir.Param{
			{Name: "zones", Priv: ir.PrivRead, Fields: []region.FieldID{press}},
			{Name: "pvt", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{fx, fy}},
			{Name: "shr", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{fx, fy}},
			{Name: "ghost", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{fx, fy}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			pres := tc.Reader(press, 0, 1)
			// private, shared, ghost
			forceX, forceY := tc.Reducer(fx, region.ReduceSum, 1, 3), tc.Reducer(fy, region.ReduceSum, 1, 3)
			tc.Rows(0, func(row ir.Row) {
				for i, pr := range pres.Row(row) {
					cs := corners(row.Point(i))
					// Outward pressure force on each corner of the unit-ish quad.
					dirs := [4][2]float64{{-1, -1}, {1, -1}, {1, 1}, {-1, 1}}
					for k := 0; k < 4; k++ {
						forceX.Fold(cs[k], 0.25*pr*dirs[k][0])
						forceY.Fold(cs[k], 0.25*pr*dirs[k][1])
					}
				}
			})
		},
		CostPerElem: cforceCostPerZone,
	}

	app.Advance = &ir.TaskDecl{
		Name: "adv_points",
		Params: []ir.Param{
			{Name: "pvt", Priv: ir.PrivReadWrite, Fields: []region.FieldID{px, py, vx, vy, fx, fy, pmass}},
			{Name: "shr", Priv: ir.PrivReadWrite, Fields: []region.FieldID{px, py, vx, vy, fx, fy, pmass}},
		},
		NumScalars: 1,
		Kernel: func(tc *ir.TaskCtx) {
			dt := tc.Scalars[0]
			for ai := 0; ai < 2; ai++ {
				posX, posY := tc.Writer(px, ai, 1), tc.Writer(py, ai, 1)
				velX, velY := tc.Writer(vx, ai, 1), tc.Writer(vy, ai, 1)
				forceX, forceY := tc.Writer(fx, ai, 1), tc.Writer(fy, ai, 1)
				mass := tc.Reader(pmass, ai, 1)
				tc.Rows(ai, func(row ir.Row) {
					pxs, pys, vxs, vys := posX.Row(row), posY.Row(row), velX.Row(row), velY.Row(row)
					fxs, fys, ms := forceX.Row(row), forceY.Row(row), mass.Row(row)
					for i, m := range ms {
						nvx := vxs[i] + dt*fxs[i]/m
						nvy := vys[i] + dt*fys[i]/m
						vxs[i] = nvx
						vys[i] = nvy
						pxs[i] += dt * nvx
						pys[i] += dt * nvy
						fxs[i] = 0
						fys[i] = 0
					}
				})
			}
		},
		CostPerElem: advanceCostPerPt,
	}

	app.CalcDtTask = &ir.TaskDecl{
		Name:   "calc_dt",
		Params: []ir.Param{{Name: "zones", Priv: ir.PrivRead, Fields: []region.FieldID{zvol, rho, press}}},
		Kernel: func(tc *ir.TaskCtx) {
			vol, dens := tc.Reader(zvol, 0, 1), tc.Reader(rho, 0, 1)
			cand := math.Inf(1)
			tc.Rows(0, func(row ir.Row) {
				rhos := dens.Row(row)
				for i, v := range vol.Row(row) {
					if c := 1e-3 * v / (1 + rhos[i]); c < cand {
						cand = c
					}
				}
			})
			tc.Return = cand
		},
		CostPerElem: calcdtCostPerZone,
	}

	domain := app.PZone.Colors()
	app.Loop = &ir.Loop{Var: "cycle", Trip: app.Cfg.Iters, Body: []ir.Stmt{
		&ir.Launch{Task: app.ZCalc, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PZone}, {Part: app.PvtP}, {Part: app.ShrP}, {Part: app.GhostP},
		}, Label: "zone_calcs"},
		&ir.Launch{Task: app.CForce, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PZone}, {Part: app.PvtP}, {Part: app.ShrP}, {Part: app.GhostP},
		}, Label: "corner_forces"},
		&ir.Launch{Task: app.Advance, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PvtP}, {Part: app.ShrP},
		}, ScalarArgs: []ir.ScalarExpr{ir.VarExpr("dt")}, Label: "adv_points"},
		&ir.Launch{Task: app.CalcDtTask, Domain: domain, Args: []ir.RegionArg{{Part: app.PZone}},
			Reduce: &ir.ScalarReduce{Into: "dt", Op: region.ReduceMin}, Label: "calc_dt"},
	}}

	app.Prog.Scalars["dt"] = 1e-6
	app.Prog.Add(
		&ir.FillFunc{Target: app.Points, Field: px, Fn: func(pt geometry.Point) float64 {
			return float64(pt.X()) + 0.01*float64((pt.X()+2*pt.Y())%5)
		}},
		&ir.FillFunc{Target: app.Points, Field: py, Fn: func(pt geometry.Point) float64 {
			return float64(pt.Y()) + 0.01*float64((2*pt.X()+pt.Y())%3)
		}},
		&ir.Fill{Target: app.Points, Field: vx, Value: 0},
		&ir.Fill{Target: app.Points, Field: vy, Value: 0},
		&ir.Fill{Target: app.Points, Field: fx, Value: 0},
		&ir.Fill{Target: app.Points, Field: fy, Value: 0},
		&ir.Fill{Target: app.Points, Field: pmass, Value: 1},
		&ir.Fill{Target: app.Zones, Field: zmass, Value: 1},
		&ir.FillFunc{Target: app.Zones, Field: e0, Fn: func(zp geometry.Point) float64 {
			return 1 + 0.1*float64((zp.X()+3*zp.Y())%9)
		}},
		&ir.Fill{Target: app.Zones, Field: zvol, Value: 0},
		&ir.Fill{Target: app.Zones, Field: rho, Value: 0},
		&ir.Fill{Target: app.Zones, Field: press, Value: 0},
		app.Loop,
	)
}
