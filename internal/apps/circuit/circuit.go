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

	// Topology: wire w connects InNode[w] -> OutNode[w].
	InNode, OutNode []int64
	Resist          []float64
}

// Build generates the graph and constructs the implicitly parallel program.
func Build(cfg Config) *App {
	rng := rand.New(rand.NewSource(cfg.Seed))
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

	app.generateWires(rng)
	ghostSubs, allShared := app.nodeSets()
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

// generateWires draws the topology: each wire's input node is in its own
// piece; the output stays local with probability PctLocal, otherwise it
// lands in a nearby piece (ring neighborhood), the locality structure of the
// Legion circuit app.
//
// This loop and nodeSets' are functions of their own for the collector, not
// the reader. A loop that calls nothing is stopped asynchronously and its
// frame is then scanned conservatively; Build's frame is 3 KB of slots mostly
// unwritten this early, and what the previous engine run left in them kept
// that run's whole program alive for one more cycle, so the heap goal doubled
// on one pass in ten (des_paths peak RSS 60 or 85 MB from run to run).
func (app *App) generateWires(rng *rand.Rand) {
	cfg, pieces := app.Cfg, int64(app.Cfg.Pieces)
	nWires := pieces * cfg.WiresPerPiece
	app.InNode = make([]int64, nWires)
	app.OutNode = make([]int64, nWires)
	app.Resist = make([]float64, nWires)
	for w := int64(0); w < nWires; w++ {
		piece := w / cfg.WiresPerPiece
		app.InNode[w] = piece*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		if pieces == 1 || rng.Float64() < cfg.PctLocal {
			app.OutNode[w] = piece*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		} else {
			other := (piece + 1 + rng.Int63n(min64(4, pieces-1))) % pieces
			app.OutNode[w] = other*cfg.NodesPerPiece + rng.Int63n(cfg.NodesPerPiece)
		}
		app.Resist[w] = 1 + float64(rng.Intn(16))*0.25
	}
}

// nodeSets returns ghost[i], the set of remote nodes piece i's wires touch,
// and the shared set: a node is shared if any wire from another piece
// touches it. Ghost sets overlap each other and the shared sets: aliased.
func (app *App) nodeSets() (map[geometry.Point]geometry.IndexSpace, geometry.IndexSpace) {
	cfg, pieces := app.Cfg, int64(app.Cfg.Pieces)
	nNodes := pieces * cfg.NodesPerPiece
	shared := make([]bool, nNodes)
	ghostSubs := make(map[geometry.Point]geometry.IndexSpace, pieces)
	var remote []geometry.Point
	for piece := int64(0); piece < pieces; piece++ {
		remote = remote[:0]
		lo, hi := piece*cfg.NodesPerPiece, (piece+1)*cfg.NodesPerPiece
		for w := piece * cfg.WiresPerPiece; w < (piece+1)*cfg.WiresPerPiece; w++ {
			for _, n := range [2]int64{app.InNode[w], app.OutNode[w]} {
				if n < lo || n >= hi {
					shared[n] = true
					remote = append(remote, geometry.Pt1(n))
				}
			}
		}
		ghostSubs[geometry.Pt1(piece)] = geometry.FromPoints(1, remote)
	}
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
	return ghostSubs, geometry.FromDisjointRects(1, sharedRuns)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// buildTasks defines the three phases and the main loop.
func (app *App) buildTasks() {
	v, q, cap0, cur := app.Voltage, app.Charge, app.Cap, app.Current
	inN, outN, res := app.InNode, app.OutNode, app.Resist
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
