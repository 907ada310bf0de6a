// Package circuit is the sparse circuit simulation of the paper's §5.4
// (Figure 9), based on the Legion circuit app: an unstructured graph of
// circuit nodes connected by wires, partitioned into pieces with
// private/shared/ghost node sets. Each iteration runs three phases:
// calculate new wire currents (reads node voltages through the ghost
// partition), distribute charge (sum-reductions into private, shared, and
// ghost nodes — the loop-carried reduction CR supports, §4.3), and update
// voltages.
package circuit

import (
	"math/rand"
	"sync"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Config sizes one run. The paper uses 25k graph nodes and 100k wires per
// compute node; the benchmark configuration scales the element counts down
// and the per-element costs up correspondingly (see EXPERIMENTS.md).
type Config struct {
	Pieces        int
	NodesPerPiece int64
	WiresPerPiece int64
	PctLocal      float64 // fraction of wires staying within their piece
	Iters         int
	Seed          int64
}

// Default returns the benchmark configuration at the given piece count.
func Default(pieces int) Config {
	return Config{
		Pieces:        pieces,
		NodesPerPiece: 1000,
		WiresPerPiece: 4000,
		PctLocal:      0.95,
		Iters:         12,
		Seed:          20170101,
	}
}

// Small returns a correctness-testing configuration.
func Small(pieces int) Config {
	return Config{
		Pieces:        pieces,
		NodesPerPiece: 24,
		WiresPerPiece: 60,
		PctLocal:      0.85,
		Iters:         3,
		Seed:          7,
	}
}

// PaperNodesPerPiece is the per-compute-node graph-node count the paper's
// throughput unit is based on.
const PaperNodesPerPiece = 25000.0

// Calibrated per-element virtual costs (ns on one core). Each scaled-down
// element stands for 25 of the paper's wires, and the paper's circuit
// solves a dense Newton iteration per wire per step, so per-virtual-wire
// costs are large; they are set so a single node's iteration takes ~0.34 s,
// matching the paper's ~70e3 graph-nodes/s/node (Figure 9).
const (
	calcCostPerWire  = 700000.0
	distCostPerWire  = 235000.0
	updateCostPerNod = 60000.0
)

// App is a built circuit program.
type App struct {
	Cfg   Config
	Prog  *ir.Program
	Loop  *ir.Loop
	Nodes *region.Region
	Wires *region.Region

	Voltage, Charge, Cap region.FieldID
	Current              region.FieldID

	PWire              *region.Partition
	PvtN, ShrN, GhostN *region.Partition

	// The topology: wire w connects inNode[w] -> outNode[w]. Only kernel
	// bodies read it, so wires draws it on the first kernel call and a
	// Modeled run never holds it.
	drawn           sync.Once
	inNode, outNode []int64
	resist          []float64
}

// Build generates the graph and constructs the implicitly parallel program.
func Build(cfg Config) *App {
	pieces := int64(cfg.Pieces)
	nNodes := pieces * cfg.NodesPerPiece
	nWires := pieces * cfg.WiresPerPiece

	app := &App{Cfg: cfg}
	p := ir.NewProgram("circuit")
	app.Prog = p

	fsN := region.NewFieldSpace("voltage", "charge", "cap")
	fsW := region.NewFieldSpace("current")
	app.Voltage = fsN.Field("voltage")
	app.Charge = fsN.Field("charge")
	app.Cap = fsN.Field("cap")
	app.Current = fsW.Field("current")

	app.Nodes = p.Tree.NewRegion("NODES", geometry.NewIndexSpace(geometry.R1(0, nNodes-1)))
	app.Wires = p.Tree.NewRegion("WIRES", geometry.NewIndexSpace(geometry.R1(0, nWires-1)))
	p.FieldSpaces[app.Nodes] = fsN
	p.FieldSpaces[app.Wires] = fsW

	app.PWire = app.Wires.Block("PWIRE", pieces)

	// ghostSubs[i] is the set of remote nodes piece i's wires touch, and a
	// node is shared if any wire from another piece touches it. A wire's
	// input node is always in its own piece, so only remote outputs count.
	// Ghost sets overlap each other and the shared sets: aliased.
	shared := make([]bool, nNodes)
	ghostSubs := make(map[geometry.Point]geometry.IndexSpace, pieces)
	var remote []geometry.Point
	cfg.drawWires(func(w, _, out int64, _ float64) {
		piece := w / cfg.WiresPerPiece
		if out/cfg.NodesPerPiece != piece {
			shared[out] = true
			remote = append(remote, geometry.Pt1(out))
		}
		if (w+1)%cfg.WiresPerPiece == 0 {
			ghostSubs[geometry.Pt1(piece)] = geometry.FromPoints(1, remote)
			remote = remote[:0]
		}
	})
	runs := 0
	for n, sh := range shared {
		if sh && (n == 0 || !shared[n-1]) {
			runs++
		}
	}
	sharedRuns := make([]geometry.Rect, 0, runs)
	for n := int64(0); n < nNodes; n++ {
		if shared[n] {
			lo := n
			for n+1 < nNodes && shared[n+1] {
				n++
			}
			sharedRuns = append(sharedRuns, geometry.R1(lo, n))
		}
	}
	allShared := geometry.FromDisjointRects(1, sharedRuns)
	allPrivateIs := app.Nodes.IndexSpace().Subtract(allShared)

	// The hierarchical §4.5 tree: private vs shared is a disjoint complete
	// cover by construction (shared is a subset, private its complement),
	// so the unchecked constructor is safe; the small-scale tests
	// re-validate through the checked path.
	top := app.Nodes.BySubsetsUnchecked("private_v_shared", geometry.NewIndexSpace(geometry.R1(0, 1)),
		map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): allPrivateIs, geometry.Pt1(1): allShared},
		true, true)
	allPrivate, allSharedR := top.Sub1(0), top.Sub1(1)

	// Per-piece private and shared node sets, grouped by owner piece —
	// disjoint and complete by construction (each node has one owner).
	pvtSubs := make(map[geometry.Point]geometry.IndexSpace, pieces)
	shrSubs := make(map[geometry.Point]geometry.IndexSpace, pieces)
	cs := geometry.NewIndexSpace(geometry.R1(0, pieces-1))
	for i := int64(0); i < pieces; i++ {
		own := geometry.NewIndexSpace(geometry.R1(i*cfg.NodesPerPiece, (i+1)*cfg.NodesPerPiece-1))
		shr := own.Intersect(allShared)
		pvtSubs[geometry.Pt1(i)] = own.Subtract(shr)
		shrSubs[geometry.Pt1(i)] = shr
	}
	app.PvtN = allPrivate.BySubsetsUnchecked("PVT", cs, pvtSubs, true, true)
	app.ShrN = allSharedR.BySubsetsUnchecked("SHR", cs, shrSubs, true, true)

	app.GhostN = allSharedR.BySubsetsUnchecked("GHOST", cs, ghostSubs, false, false)

	app.buildTasks()
	return app
}

// drawWires draws the topology and hands fn each wire in order: a wire's
// input node is in its own piece; the output stays local with probability
// PctLocal, otherwise it lands in a nearby piece (ring neighborhood), the
// locality structure of the Legion circuit app.
func (cfg Config) drawWires(fn func(w, in, out int64, resist float64)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pieces := int64(cfg.Pieces)
	for w := int64(0); w < pieces*cfg.WiresPerPiece; w++ {
		piece := w / cfg.WiresPerPiece
		in := piece*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		var out int64
		if pieces == 1 || rng.Float64() < cfg.PctLocal {
			out = piece*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		} else {
			other := (piece + 1 + rng.Int63n(min(4, pieces-1))) % pieces
			out = other*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		}
		fn(w, in, out, 1+float64(rng.Intn(16))*0.25)
	}
}

// wires returns the topology, drawing it on the first call.
func (app *App) wires() (in, out []int64, resist []float64) {
	app.drawn.Do(func() {
		n := int64(app.Cfg.Pieces) * app.Cfg.WiresPerPiece
		app.inNode, app.outNode, app.resist = make([]int64, n), make([]int64, n), make([]float64, n)
		app.Cfg.drawWires(func(w, in, out int64, resist float64) {
			app.inNode[w], app.outNode[w], app.resist[w] = in, out, resist
		})
	})
	return app.inNode, app.outNode, app.resist
}

// buildTasks defines the three phases and the main loop.
func (app *App) buildTasks() {
	v, q, cap0, cur := app.Voltage, app.Charge, app.Cap, app.Current
	dt := 1e-3

	calc := &ir.TaskDecl{
		Name: "calc_new_currents",
		Params: []ir.Param{
			{Name: "wires", Priv: ir.PrivReadWrite, Fields: []region.FieldID{cur}},
			{Name: "pvt", Priv: ir.PrivRead, Fields: []region.FieldID{v}},
			{Name: "shr", Priv: ir.PrivRead, Fields: []region.FieldID{v}},
			{Name: "ghost", Priv: ir.PrivRead, Fields: []region.FieldID{v}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			inN, outN, res := app.wires()
			current := tc.Writer(cur, 0, 1)
			volts := tc.Reader(v, 1, 3) // private, shared, ghost
			tc.Rows(0, func(row ir.Row) {
				curs := current.Row(row)
				for i := range curs {
					w := row.First.X() + int64(i)
					dv := volts.Get(geometry.Pt1(inN[w])) - volts.Get(geometry.Pt1(outN[w]))
					curs[i] = dv / res[w]
				}
			})
		},
		CostPerElem: calcCostPerWire,
	}

	dist := &ir.TaskDecl{
		Name: "distribute_charge",
		Params: []ir.Param{
			{Name: "wires", Priv: ir.PrivRead, Fields: []region.FieldID{cur}},
			{Name: "pvt", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{q}},
			{Name: "shr", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{q}},
			{Name: "ghost", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{q}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			inN, outN, _ := app.wires()
			current := tc.Reader(cur, 0, 1)
			charge := tc.Reducer(q, region.ReduceSum, 1, 3) // private, shared, ghost
			tc.Rows(0, func(row ir.Row) {
				for k, i := range current.Row(row) {
					w := row.First.X() + int64(k)
					charge.Fold(geometry.Pt1(inN[w]), -dt*i)
					charge.Fold(geometry.Pt1(outN[w]), dt*i)
				}
			})
		},
		CostPerElem: distCostPerWire,
	}

	update := &ir.TaskDecl{
		Name: "update_voltages",
		Params: []ir.Param{
			{Name: "pvt", Priv: ir.PrivReadWrite, Fields: []region.FieldID{v, q, cap0}},
			{Name: "shr", Priv: ir.PrivReadWrite, Fields: []region.FieldID{v, q, cap0}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			for ai := 0; ai < 2; ai++ {
				volts, charge, capac := tc.Writer(v, ai, 1), tc.Writer(q, ai, 1), tc.Reader(cap0, ai, 1)
				tc.Rows(ai, func(row ir.Row) {
					vs, qs, caps := volts.Row(row), charge.Row(row), capac.Row(row)
					for i := range vs {
						vs[i] += qs[i] / caps[i]
						qs[i] = 0
					}
				})
			}
		},
		CostPerElem: updateCostPerNod,
	}

	domain := ir.Colors1D(int64(app.Cfg.Pieces))
	app.Loop = &ir.Loop{Var: "t", Trip: app.Cfg.Iters, Body: []ir.Stmt{
		&ir.Launch{Task: calc, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PWire}, {Part: app.PvtN}, {Part: app.ShrN}, {Part: app.GhostN},
		}, Label: "calc_new_currents"},
		&ir.Launch{Task: dist, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PWire}, {Part: app.PvtN}, {Part: app.ShrN}, {Part: app.GhostN},
		}, Label: "distribute_charge"},
		&ir.Launch{Task: update, Domain: domain, Args: []ir.RegionArg{
			{Part: app.PvtN}, {Part: app.ShrN},
		}, Label: "update_voltages"},
	}}
	app.Prog.Add(
		&ir.FillFunc{Target: app.Nodes, Field: v, Fn: func(pt geometry.Point) float64 {
			return 1 + float64(pt.X()%17)*0.125
		}},
		&ir.Fill{Target: app.Nodes, Field: q, Value: 0},
		&ir.FillFunc{Target: app.Nodes, Field: cap0, Fn: func(pt geometry.Point) float64 {
			return 0.5 + float64(pt.X()%7)*0.25
		}},
		&ir.Fill{Target: app.Wires, Field: cur, Value: 0},
		app.Loop,
	)
}
