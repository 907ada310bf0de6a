// Package miniaero is the 3-D unstructured-mesh explicit Navier-Stokes
// proxy of the paper's §5.2 (Figure 7), modeled on Sandia's MiniAero: an
// RK4 time integrator where each stage computes per-cell residuals from
// face fluxes against neighboring cells (reading one layer of ghost cells)
// and advances the cell state, weak-scaled at 512k cells per node.
//
// The mesh is a hex grid decomposed over a 3-D grid of pieces and treated
// as unstructured: cells are 1-D indexed piece-major, neighbor connectivity
// is explicit, and the six face layers of each piece form the shared/ghost
// hierarchy of §4.5.
package miniaero

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Config sizes one run: each piece owns W x H x D cells, and pieces are
// arranged on the most-cubic 3-D grid. The paper runs 512k cells per node;
// the benchmark configuration scales element counts down and per-element
// costs up (see EXPERIMENTS.md).
type Config struct {
	Pieces  int
	W, H, D int64
	Iters   int
}

// Default returns the benchmark configuration.
func Default(pieces int) Config {
	return Config{Pieces: pieces, W: 8, H: 16, D: 16, Iters: 10}
}

// Small returns a correctness-testing configuration.
func Small(pieces int) Config {
	return Config{Pieces: pieces, W: 3, H: 2, D: 2, Iters: 2}
}

// PaperCellsPerNode is the paper's per-node cell count (throughput unit:
// cells/s per node).
const PaperCellsPerNode = 512e3

// RK4 stage coefficients of the classic low-storage scheme MiniAero uses.
var rkAlpha = [4]float64{0.25, 1.0 / 3.0, 0.5, 1.0}

// Calibrated per-element virtual costs (ns, one core); each scaled-down
// cell stands for ~250 paper cells.
const (
	fluxCostPerCell = 330000.0
	updCostPerCell  = 110000.0
	saveCostPerCell = 70000.0
)

// Factor3 returns a near-cubic factorization a*b*c = n with a >= b >= c.
func Factor3(n int64) (a, b, c int64) {
	c = 1
	for d := int64(1); d*d*d <= n; d++ {
		if n%d == 0 {
			c = d
		}
	}
	a, b = geometry.Factor2(n / c)
	return a, b, c
}

// App is a built MiniAero program.
type App struct {
	Cfg        Config
	Px, Py, Pz int64 // piece grid
	Prog       *ir.Program
	Loop       *ir.Loop
	Cells      *region.Region
	Res        *region.Region

	U, U0 region.FieldID
	R     region.FieldID

	PRes               *region.Partition
	PvtC, ShrC, GhostC *region.Partition
}

// mesh captures the piece-major cell indexing.
type mesh struct {
	w, h, d    int64 // cells per piece
	px, py, pz int64 // piece grid
	c          int64 // cells per piece (w*h*d)
}

func (m mesh) pieces() int64 { return m.px * m.py * m.pz }

// pieceIdx flattens piece coordinates.
func (m mesh) pieceIdx(a, b, c int64) int64 { return a*(m.py*m.pz) + b*m.pz + c }

// cellID flattens (piece, local) to the global 1-D cell id.
func (m mesh) cellID(piece, lx, ly, lz int64) int64 {
	return piece*m.c + lx*(m.h*m.d) + ly*m.d + lz
}

// locate inverts cellID.
func (m mesh) locate(id int64) (piece, lx, ly, lz int64) {
	piece = id / m.c
	rem := id % m.c
	lx = rem / (m.h * m.d)
	rem %= m.h * m.d
	return piece, lx, rem / m.d, rem % m.d
}

// face returns the index space of one face layer of a piece: axis 0/1/2
// (x/y/z), side 0 (low) or 1 (high). Constructed as disjoint spans in the
// piece-major id space, gathered in rects, which is returned for reuse
// (FromDisjointRects does not retain it).
func (m mesh) face(piece, axis, side int64, rects []geometry.Rect) (geometry.IndexSpace, []geometry.Rect) {
	base := piece * m.c
	rects = rects[:0]
	switch axis {
	case 0:
		lx := int64(0)
		if side == 1 {
			lx = m.w - 1
		}
		lo := base + lx*m.h*m.d
		rects = append(rects, geometry.R1(lo, lo+m.h*m.d-1))
	case 1:
		ly := int64(0)
		if side == 1 {
			ly = m.h - 1
		}
		for lx := int64(0); lx < m.w; lx++ {
			lo := base + lx*m.h*m.d + ly*m.d
			rects = append(rects, geometry.R1(lo, lo+m.d-1))
		}
	default:
		lz := int64(0)
		if side == 1 {
			lz = m.d - 1
		}
		for lx := int64(0); lx < m.w; lx++ {
			for ly := int64(0); ly < m.h; ly++ {
				id := base + lx*m.h*m.d + ly*m.d + lz
				rects = append(rects, geometry.R1(id, id))
			}
		}
	}
	return geometry.FromDisjointRects(1, rects), rects
}

// neighborPiece steps the piece grid; ok is false at the global boundary.
func (m mesh) neighborPiece(piece, axis, dir int64) (int64, bool) {
	a := piece / (m.py * m.pz)
	b := (piece / m.pz) % m.py
	c := piece % m.pz
	switch axis {
	case 0:
		a += dir
		if a < 0 || a >= m.px {
			return 0, false
		}
	case 1:
		b += dir
		if b < 0 || b >= m.py {
			return 0, false
		}
	default:
		c += dir
		if c < 0 || c >= m.pz {
			return 0, false
		}
	}
	return m.pieceIdx(a, b, c), true
}

// Build constructs the mesh and the implicitly parallel RK4 program.
func Build(cfg Config) *App {
	app := &App{Cfg: cfg}
	p := ir.NewProgram("miniaero")
	app.Prog = p

	px, py, pz := Factor3(int64(cfg.Pieces))
	app.Px, app.Py, app.Pz = px, py, pz
	m := mesh{w: cfg.W, h: cfg.H, d: cfg.D, px: px, py: py, pz: pz, c: cfg.W * cfg.H * cfg.D}
	nCells := m.pieces() * m.c

	fsC := region.NewFieldSpace("u", "u0")
	fsR := region.NewFieldSpace("r")
	app.U, app.U0 = fsC.Field("u"), fsC.Field("u0")
	app.R = fsR.Field("r")

	app.Cells = p.Tree.NewRegion("CELLS", geometry.NewIndexSpace(geometry.R1(0, nCells-1)))
	app.Res = p.Tree.NewRegion("RES", geometry.NewIndexSpace(geometry.R1(0, nCells-1)))
	p.FieldSpaces[app.Cells] = fsC
	p.FieldSpaces[app.Res] = fsR

	app.PRes = app.Res.Block("PRES", m.pieces())

	// Shared cells: every face layer adjacent to an existing neighbor.
	// Ghosts: the neighbors' opposite face layers, which are shared cells
	// of theirs, so each face is built once, at faces[6*piece+2*axis+side].
	faces := make([]geometry.IndexSpace, 6*m.pieces())
	var rects []geometry.Rect
	for piece := int64(0); piece < m.pieces(); piece++ {
		for axis := int64(0); axis < 3; axis++ {
			for side := int64(0); side < 2; side++ {
				if _, ok := m.neighborPiece(piece, axis, 2*side-1); ok {
					faces[6*piece+2*axis+side], rects = m.face(piece, axis, side, rects)
				}
			}
		}
	}
	var allSharedParts []geometry.IndexSpace
	shrSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	pvtSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	ghSubs := make(map[geometry.Point]geometry.IndexSpace, cfg.Pieces)
	for piece := int64(0); piece < m.pieces(); piece++ {
		var shared, ghosts []geometry.IndexSpace
		for axis := int64(0); axis < 3; axis++ {
			for side := int64(0); side < 2; side++ {
				nb, ok := m.neighborPiece(piece, axis, 2*side-1)
				if !ok {
					continue
				}
				shared = append(shared, faces[6*piece+2*axis+side])
				ghosts = append(ghosts, faces[6*nb+2*axis+1-side])
			}
		}
		shr := geometry.UnionMany(1, shared)
		own := geometry.NewIndexSpace(geometry.R1(piece*m.c, (piece+1)*m.c-1))
		key := geometry.Pt1(piece)
		shrSubs[key] = shr
		pvtSubs[key] = own.Subtract(shr)
		ghSubs[key] = geometry.UnionMany(1, ghosts)
		allSharedParts = append(allSharedParts, shr)
	}
	allSharedIs := geometry.UnionMany(1, allSharedParts)

	top := app.Cells.BySubsetsUnchecked("private_v_shared", geometry.NewIndexSpace(geometry.R1(0, 1)),
		map[geometry.Point]geometry.IndexSpace{
			geometry.Pt1(0): app.Cells.IndexSpace().Subtract(allSharedIs),
			geometry.Pt1(1): allSharedIs,
		}, true, true)
	allPrivate, allShared := top.Sub1(0), top.Sub1(1)

	cs := geometry.NewIndexSpace(geometry.R1(0, m.pieces()-1))
	app.PvtC = allPrivate.BySubsetsUnchecked("PVT", cs, pvtSubs, true, true)
	app.ShrC = allShared.BySubsetsUnchecked("SHR", cs, shrSubs, true, true)
	app.GhostC = allShared.BySubsetsUnchecked("GHOST", cs, ghSubs, false, false)

	app.buildTasks(m)
	return app
}

// buildTasks defines the save/flux/update tasks and the RK4 loop.
func (app *App) buildTasks(m mesh) {
	u, u0, r := app.U, app.U0, app.R
	cfg := app.Cfg

	// neighbors returns the face-adjacent cell ids of cell c, crossing
	// piece boundaries; missing neighbors at the global boundary are
	// skipped. Order is deterministic: -x, +x, -y, +y, -z, +z.
	neighbors := func(id int64) (out [6]int64, n int) {
		piece, lx, ly, lz := m.locate(id)
		for axis := int64(0); axis < 3; axis++ {
			for _, dir := range [2]int64{-1, 1} {
				nlx, nly, nlz := lx, ly, lz
				var cross bool
				switch axis {
				case 0:
					nlx += dir
					cross = nlx < 0 || nlx >= cfg.W
				case 1:
					nly += dir
					cross = nly < 0 || nly >= cfg.H
				default:
					nlz += dir
					cross = nlz < 0 || nlz >= cfg.D
				}
				at := piece
				if cross {
					nb, ok := m.neighborPiece(piece, axis, dir)
					if !ok {
						continue
					}
					at = nb
					switch axis {
					case 0:
						nlx = (nlx + cfg.W) % cfg.W
					case 1:
						nly = (nly + cfg.H) % cfg.H
					default:
						nlz = (nlz + cfg.D) % cfg.D
					}
				}
				out[n] = m.cellID(at, nlx, nly, nlz)
				n++
			}
		}
		return out, n
	}

	save := &ir.TaskDecl{
		Name: "save_state",
		Params: []ir.Param{
			{Name: "pvt0", Priv: ir.PrivReadWrite, Fields: []region.FieldID{u0}},
			{Name: "pvtU", Priv: ir.PrivRead, Fields: []region.FieldID{u}},
			{Name: "shr0", Priv: ir.PrivReadWrite, Fields: []region.FieldID{u0}},
			{Name: "shrU", Priv: ir.PrivRead, Fields: []region.FieldID{u}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			for ai := 0; ai < 4; ai += 2 {
				saved, cur := tc.Writer(u0, ai, 1), tc.Reader(u, ai+1, 1)
				tc.Rows(ai, func(row ir.Row) {
					cur.Read(row.First, saved.Row(row))
				})
			}
		},
		CostPerElem: saveCostPerCell,
	}

	flux := &ir.TaskDecl{
		Name: "compute_flux",
		Params: []ir.Param{
			{Name: "res", Priv: ir.PrivReadWrite, Fields: []region.FieldID{r}},
			{Name: "pvt", Priv: ir.PrivRead, Fields: []region.FieldID{u}},
			{Name: "shr", Priv: ir.PrivRead, Fields: []region.FieldID{u}},
			{Name: "ghost", Priv: ir.PrivRead, Fields: []region.FieldID{u}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			res := tc.Writer(r, 0, 1)
			cells := tc.Reader(u, 1, 3) // private, shared, ghost
			tc.Rows(0, func(row ir.Row) {
				out := res.Row(row)
				for i := range out {
					id := row.First.X() + int64(i)
					uc := cells.Get(geometry.Pt1(id))
					acc := 0.0
					nbs, n := neighbors(id)
					for _, nb := range nbs[:n] {
						acc += cells.Get(geometry.Pt1(nb)) - uc
					}
					out[i] = 0.1 * acc
				}
			})
		},
		CostPerElem: fluxCostPerCell,
	}

	mkUpdate := func(stage int) *ir.TaskDecl {
		alpha := rkAlpha[stage]
		return &ir.TaskDecl{
			Name: "rk_update",
			Params: []ir.Param{
				{Name: "pvt", Priv: ir.PrivReadWrite, Fields: []region.FieldID{u, u0}},
				{Name: "shr", Priv: ir.PrivReadWrite, Fields: []region.FieldID{u, u0}},
				{Name: "res", Priv: ir.PrivRead, Fields: []region.FieldID{r}},
			},
			NumScalars: 1,
			Kernel: func(tc *ir.TaskCtx) {
				dt := tc.Scalars[0]
				res := tc.Reader(r, 2, 1)
				for ai := 0; ai < 2; ai++ {
					cur, saved := tc.Writer(u, ai, 1), tc.Reader(u0, ai, 1)
					tc.Rows(ai, func(row ir.Row) {
						us, u0s := cur.Row(row), saved.Row(row)
						for i := range us {
							us[i] = u0s[i] + alpha*dt*res.Get(row.Point(i))
						}
					})
				}
			},
			CostPerElem: updCostPerCell,
		}
	}

	domain := ir.Colors1D(m.pieces())
	body := []ir.Stmt{
		&ir.Launch{Task: save, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PvtC}, {Part: app.PvtC}, {Part: app.ShrC}, {Part: app.ShrC},
		}, Label: "save_state"},
	}
	for s := 0; s < 4; s++ {
		body = append(body,
			&ir.Launch{Task: flux, Domain: domain, Args: []ir.RegionArg{
				{Part: app.PRes}, {Part: app.PvtC}, {Part: app.ShrC}, {Part: app.GhostC},
			}, Label: "compute_flux"},
			&ir.Launch{Task: mkUpdate(s), Domain: domain, Args: []ir.RegionArg{
				{Part: app.PvtC}, {Part: app.ShrC}, {Part: app.PRes},
			}, ScalarArgs: []ir.ScalarExpr{ir.ConstExpr(1e-3)}, Label: "rk_update"},
		)
	}
	app.Loop = &ir.Loop{Var: "t", Trip: cfg.Iters, Body: body}
	app.Prog.Add(
		&ir.FillFunc{Target: app.Cells, Field: u, Fn: func(pt geometry.Point) float64 {
			return 1 + 0.25*float64(pt.X()%13)
		}},
		&ir.Fill{Target: app.Cells, Field: u0, Value: 0},
		&ir.Fill{Target: app.Res, Field: r, Value: 0},
		app.Loop,
	)
}
