// Package stencil is the PRK 2-D star-shaped stencil benchmark of the
// paper's §5.1 (Figure 6): a radius-R star stencil applied to a regular
// grid, weak-scaled at 40k x 40k points per node, written implicitly in the
// ir subset with the hierarchical private/ghost partitioning of §4.5 so
// control replication generates halo exchanges only for the boundary bands.
package stencil

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Config sizes one run.
type Config struct {
	Nodes int
	// TileW and TileH are the per-node (per-tile) grid extents; the paper
	// uses 40000 x 40000.
	TileW, TileH int64
	Radius       int64
	Iters        int
}

// Default returns the paper's configuration at the given node count.
func Default(nodes int) Config {
	return Config{Nodes: nodes, TileW: 40000, TileH: 40000, Radius: 2, Iters: 12}
}

// Small returns a correctness-testing configuration.
func Small(nodes int) Config {
	return Config{Nodes: nodes, TileW: 12, TileH: 10, Radius: 2, Iters: 3}
}

// Native returns the native-backend benchmark configuration: tiles sized
// so real kernel execution dominates the per-goroutine overheads (the
// paper-scale 40k x 40k tiles of Default would need ~12.8 GB per node).
func Native(nodes int) Config {
	return Config{Nodes: nodes, TileW: 360, TileH: 360, Radius: 2, Iters: 12}
}

// App is a built stencil program plus the handles tests and the harness
// need.
type App struct {
	Cfg      Config
	Gx, Gy   int64
	Prog     *ir.Program
	Loop     *ir.Loop
	In, Out  *region.Region
	XIn      region.FieldID
	XOut     region.FieldID
	POut     *region.Partition
	PInPriv  *region.Partition
	SIn      *region.Partition
	QIn      *region.Partition
	StencilT *ir.TaskDecl
	AddT     *ir.TaskDecl
}

// Factor2 returns the most-square factorization gx*gy = n with gx >= gy.
func Factor2(n int) (gx, gy int64) {
	return geometry.Factor2(int64(n))
}

// Calibrated per-element kernel costs in nanoseconds per point on one core.
// The Regent tasks carry the 11/12 code-generation advantage that offsets
// the dedicated runtime core (see EXPERIMENTS.md).
const (
	stencilCostPerPoint = 7.4
	addCostPerPoint     = 1.2
	regentKernelFactor  = 11.0 / 12.0
)

// Build constructs the implicitly parallel stencil program.
func Build(cfg Config) *App {
	gx, gy := Factor2(cfg.Nodes)
	w, h := gx*cfg.TileW, gy*cfg.TileH
	r := cfg.Radius
	if cfg.TileW < 2*r+1 || cfg.TileH < 2*r+1 {
		panic("stencil: tiles must exceed the stencil diameter")
	}

	app := &App{Cfg: cfg, Gx: gx, Gy: gy}
	p := ir.NewProgram("stencil")
	app.Prog = p

	fsIn := region.NewFieldSpace("xin")
	fsOut := region.NewFieldSpace("xout")
	app.XIn = fsIn.Field("xin")
	app.XOut = fsOut.Field("xout")

	grid := geometry.NewIndexSpace(geometry.R2(0, 0, w-1, h-1))
	app.In = p.Tree.NewRegion("IN", grid)
	app.Out = p.Tree.NewRegion("OUT", grid)
	p.FieldSpaces[app.In] = fsIn
	p.FieldSpaces[app.Out] = fsOut

	app.POut = app.Out.Block2D("POUT", gx, gy)
	pin := app.In.Block2D("PIN", gx, gy)

	// The communicated ("ghost") elements are all points within R of an
	// internal tile gridline: full-width horizontal bands around internal
	// y-gridlines, plus vertical band segments between them — constructed
	// directly as disjoint rectangles so 1024-tile grids build in linear
	// time.
	var ghostRects []geometry.Rect
	var ySegs []geometry.Rect // y-extents not covered by horizontal bands
	prevEnd := int64(0)
	for ty := int64(1); ty < gy; ty++ {
		y := ty * cfg.TileH
		ghostRects = append(ghostRects, geometry.R2(0, y-r, w-1, y+r-1))
		ySegs = append(ySegs, geometry.R1(prevEnd, y-r-1))
		prevEnd = y + r
	}
	ySegs = append(ySegs, geometry.R1(prevEnd, h-1))
	for tx := int64(1); tx < gx; tx++ {
		x := tx * cfg.TileW
		for _, seg := range ySegs {
			ghostRects = append(ghostRects, geometry.R2(x-r, seg.Lo.X(), x+r-1, seg.Hi.X()))
		}
	}
	ghost := geometry.FromDisjointRects(2, ghostRects)

	// Private: each tile shrunk by R on every internal side.
	var privRects []geometry.Rect
	for tx := int64(0); tx < gx; tx++ {
		for ty := int64(0); ty < gy; ty++ {
			x0, x1 := tx*cfg.TileW, (tx+1)*cfg.TileW-1
			y0, y1 := ty*cfg.TileH, (ty+1)*cfg.TileH-1
			if tx > 0 {
				x0 += r
			}
			if tx < gx-1 {
				x1 -= r
			}
			if ty > 0 {
				y0 += r
			}
			if ty < gy-1 {
				y1 -= r
			}
			privRects = append(privRects, geometry.R2(x0, y0, x1, y1))
		}
	}
	private := geometry.FromDisjointRects(2, privRects)

	top := app.In.BySubsets("private_v_ghost", geometry.NewIndexSpace(geometry.R1(0, 1)),
		map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): private, geometry.Pt1(1): ghost})
	if !top.Disjoint() || !top.Complete() {
		panic("stencil: private/ghost split must be a disjoint cover")
	}
	allPrivate, allGhost := top.Sub1(0), top.Sub1(1)

	app.PInPriv = region.Restrict(allPrivate, pin, "PINpriv")
	app.SIn = region.Restrict(allGhost, pin, "SIN")
	// Star-shaped halo: the four side strips outside each tile (a star
	// stencil needs no corners).
	starHalo := func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{
			geometry.R2(b.Lo.X()-r, b.Lo.Y(), b.Lo.X()-1, b.Hi.Y()),
			geometry.R2(b.Hi.X()+1, b.Lo.Y(), b.Hi.X()+r, b.Hi.Y()),
			geometry.R2(b.Lo.X(), b.Lo.Y()-r, b.Hi.X(), b.Lo.Y()-1),
			geometry.R2(b.Lo.X(), b.Hi.Y()+1, b.Hi.X(), b.Hi.Y()+r),
		}
	}
	qflat := region.ImageRects(app.In, pin, "QINflat", starHalo)
	app.QIn = region.Restrict(allGhost, qflat, "QIN")

	xin, xout := app.XIn, app.XOut
	gridBounds := grid.Bounds()

	app.StencilT = &ir.TaskDecl{
		Name: "stencil",
		Params: []ir.Param{
			{Name: "out", Priv: ir.PrivReadWrite, Fields: []region.FieldID{xout}},
			{Name: "priv", Priv: ir.PrivRead, Fields: []region.FieldID{xin}},
			{Name: "shared", Priv: ir.PrivRead, Fields: []region.FieldID{xin}},
			{Name: "ghost", Priv: ir.PrivRead, Fields: []region.FieldID{xin}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			out := tc.Writer(xout, 0, 1)
			in := tc.Reader(xin, 1, 3) // private, shared, ghost
			// The input an output row reads is gathered once per row instead of
			// looked up once per point: w values of row x (the row widened by r
			// at both ends) at buf[0], then n values each of rows x+k at
			// buf[k*w] and x-k at buf[(r+k)*w]. The sums below add the same
			// terms in the same order as a Get per neighbour would.
			var buf []float64
			tc.Rows(0, func(row ir.Row) {
				// PRK computes only points with full stencil support.
				x, y0 := row.First.X(), row.First.Y()
				if x < r || x > gridBounds.Hi.X()-r {
					return
				}
				lo, hi := max(y0, r), min(y0+int64(row.Len)-1, gridBounds.Hi.Y()-r)
				if lo > hi {
					return
				}
				accs := out.Row(row)[lo-y0 : hi-y0+1]
				n := int64(len(accs))
				w := n + 2*r
				if need := int(w * (2*r + 1)); len(buf) < need {
					buf = make([]float64, need)
				}
				centre := buf[:w]
				in.Read(geometry.Pt2(x, lo-r), centre)
				for k := int64(1); k <= r; k++ {
					in.Read(geometry.Pt2(x+k, lo), buf[k*w:k*w+n])
					in.Read(geometry.Pt2(x-k, lo), buf[(r+k)*w:(r+k)*w+n])
				}
				for i := range accs {
					c := int64(i) + r // the point's own place in centre
					acc := accs[i]
					for k := int64(1); k <= r; k++ {
						wk := 1.0 / (2.0 * float64(k) * float64(2*r+1))
						acc += wk * buf[k*w+int64(i)]
						acc += wk * buf[(r+k)*w+int64(i)]
						acc += wk * centre[c+k]
						acc += wk * centre[c-k]
					}
					accs[i] = acc
				}
			})
		},
		CostPerElem: stencilCostPerPoint * regentKernelFactor,
		CostArg:     0,
	}
	app.AddT = &ir.TaskDecl{
		Name: "add",
		Params: []ir.Param{
			{Name: "priv", Priv: ir.PrivReadWrite, Fields: []region.FieldID{xin}},
			{Name: "shared", Priv: ir.PrivReadWrite, Fields: []region.FieldID{xin}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			for ai := 0; ai < 2; ai++ {
				in := tc.Writer(xin, ai, 1)
				tc.Rows(ai, func(row ir.Row) {
					xs := in.Row(row)
					for i := range xs {
						xs[i]++
					}
				})
			}
		},
		CostPerElem: addCostPerPoint * regentKernelFactor,
		CostArg:     0,
	}

	domain := app.POut.Colors()
	app.Loop = &ir.Loop{Var: "t", Trip: cfg.Iters, Body: []ir.Stmt{
		&ir.Launch{Task: app.StencilT, Domain: domain, Args: []ir.RegionArg{
			{Part: app.POut}, {Part: app.PInPriv}, {Part: app.SIn}, {Part: app.QIn},
		}, Label: "stencil"},
		&ir.Launch{Task: app.AddT, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PInPriv}, {Part: app.SIn},
		}, Label: "add"},
	}}
	p.Add(
		&ir.FillFunc{Target: app.In, Field: xin, Fn: func(pt geometry.Point) float64 {
			return float64(pt.X()) + float64(pt.Y())*0.5
		}},
		&ir.Fill{Target: app.Out, Field: xout, Value: 0},
		app.Loop,
	)
	return app
}

// PointsPerNode returns the per-node work items per iteration (for
// throughput reporting in the paper's unit, points/s per node).
func (a *App) PointsPerNode() float64 {
	return float64(a.Cfg.TileW * a.Cfg.TileH)
}
