// Package rt is a Legion-like dynamic tasking runtime executing implicitly
// parallel ir programs on the simulated machine: a single control thread
// interprets the program, performing dynamic dependence analysis between
// task launches from privileges and region aliasing (§2.1, §4.1), issuing
// tasks to nodes through a mapper (§4.2), charging the per-task control
// overhead that motivates control replication (§1), and modeling the data
// movement the runtime performs between producers and consumers.
//
// Execution is deferred, as in Legion: the control thread issues launches
// without waiting for completion (up to a bounded scheduling window), so
// worker execution overlaps analysis. In Real mode task kernels actually
// execute and the final region contents must match ir.ExecSequential
// bitwise; in Modeled mode only the control plane runs and kernels are
// represented by their cost model.
package rt

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// Overheads are the runtime's control-plane cost parameters. A "task" here
// is node-granular (one task per node per launch, standing for a node's
// worth of the paper's per-core tasks), so per-task costs are calibrated as
// cores x the per-task cost of the real runtime; see DESIGN.md.
type Overheads struct {
	// LaunchBase is the control-thread time to analyze and issue one task.
	LaunchBase realm.Time
	// LaunchPerSub is the added analysis time per subregion of the launch's
	// partitions (per task): the dynamic region-tree walks and epoch lists
	// the central runtime maintains grow with the number of subregions, so
	// implicit-mode control cost is superlinear in node count. Zero by
	// default; the benchmark harness calibrates it per application.
	LaunchPerSub realm.Time
	// Window is the scheduling window in loop iterations the control thread
	// may run ahead of completion.
	Window int
	// KernelCores divides task kernel durations, modeling intra-node
	// parallel execution of a node-granular task.
	KernelCores int
	// Noise optionally scales task durations per (node, iteration) to model
	// load imbalance and OS noise (nil = none).
	Noise realm.NoiseFn
}

// DefaultOverheads returns overheads calibrated for a machine with the
// given cores per node.
func DefaultOverheads(cores int) Overheads {
	return Overheads{
		LaunchBase:  realm.Microseconds(float64(cores) * 40),
		Window:      2,
		KernelCores: cores,
	}
}

// Mapper assigns each task of an index launch to a node (§4.2).
type Mapper interface {
	// NodeFor maps the colorIdx-th of numColors tasks onto one of nodes.
	NodeFor(colorIdx, numColors, nodes int) int
}

// BlockMapper distributes a launch's tasks in contiguous blocks over nodes,
// the typical strategy of Legion's default mapper.
type BlockMapper struct{}

// NodeFor implements Mapper.
func (BlockMapper) NodeFor(colorIdx, numColors, nodes int) int {
	return colorIdx * nodes / numColors
}

// CyclicMapper deals a launch's tasks round-robin across nodes. With block
// partitions it scatters neighboring subregions onto different nodes, which
// multiplies communication — a useful foil for mapping experiments (§4.2:
// the techniques are agnostic to the mapping used).
type CyclicMapper struct{}

// NodeFor implements Mapper.
func (CyclicMapper) NodeFor(colorIdx, numColors, nodes int) int {
	return colorIdx % nodes
}

// Result is the outcome of an engine run.
type Result struct {
	Stores    map[*region.Region]*region.Store
	Env       ir.MapEnv
	IterTimes map[*ir.Loop][]realm.Time // completion virtual time per iteration
	Elapsed   realm.Time
	Stats     realm.Stats
}

// Engine executes one program on one realm backend: the DES (*realm.Sim)
// in the usual configuration, or any other realm.Exec implementation.
type Engine struct {
	Sim  realm.Exec
	Prog *ir.Program
	Mode ir.ExecMode
	Over Overheads
	Map  Mapper
	// NoTrace disables trace capture & replay of loop bodies (see trace.go);
	// the schedule is identical either way, only the control-plane work of
	// computing it differs.
	NoTrace bool

	stores     map[*region.Region]*region.Store
	rootArgs   *ir.RootArgs // Real mode: task contexts over stores
	users      map[*region.Region][]*use
	env        *realm.Futures // the control thread's scalar bindings
	ctl        realm.Agent
	pairCache  map[pairKey][]pairInfo
	coverCache map[pairKey]bool
	iterTimes  map[*ir.Loop][]realm.Time
	iterEvents []realm.Event // events of the current loop iteration
	curIter    int           // current innermost-loop iteration (for noise)

	// Per-launch-site facts and scratch buffers for issueLaunch; see
	// launch.go. The buffers hold no state between launches.
	sites       map[*ir.Launch]*site
	presBuf     []realm.Event
	taskDoneBuf []realm.Event

	// Trace capture & replay state (see trace.go): the active loop trace,
	// the recycled-use pool feeding replayed iterations, and counters.
	trace      *traceState
	useFree    []*use
	traceStats TraceStats
}

// TraceStats returns the trace-replay counters accumulated so far.
func (e *Engine) TraceStats() TraceStats { return e.traceStats }

// New creates an engine with default mapper.
func New(sim realm.Exec, prog *ir.Program, mode ir.ExecMode) *Engine {
	return &Engine{
		Sim:  sim,
		Prog: prog,
		Mode: mode,
		Over: DefaultOverheads(sim.Config().CoresPerNode),
		Map:  BlockMapper{},
	}
}

// Run validates, normalizes projections, interprets the program on a
// control thread bound to node 0, and drives the simulation to completion.
func (e *Engine) Run() (*Result, error) {
	if err := e.Prog.Validate(); err != nil {
		return nil, err
	}
	ir.NormalizeProjections(e.Prog)

	e.stores = make(map[*region.Region]*region.Store)
	if e.Mode == ir.ExecReal {
		e.stores = e.Prog.NewStores()
		e.rootArgs = &ir.RootArgs{Stores: e.stores}
	}
	e.users = make(map[*region.Region][]*use)
	e.pairCache = make(map[pairKey][]pairInfo)
	e.coverCache = make(map[pairKey]bool)
	e.iterTimes = make(map[*ir.Loop][]realm.Time)
	e.sites = make(map[*ir.Launch]*site)

	// A node crash orphaning the control thread's waits (rt has no
	// recovery layer) comes back as a *realm.DeadlockError.
	elapsed, err := realm.RunControl(e.Sim, "rt", "control", func(ctl realm.Agent) {
		e.ctl = ctl
		e.env = realm.NewFutures("rt", ctl, e.Prog.Scalars)
		e.execStmts(e.Prog.Stmts)
	})
	if err != nil {
		return nil, err
	}

	// Every future has resolved by now, so the snapshot waits on nothing.
	return &Result{
		Stores:    e.stores,
		Env:       e.env.Snapshot(),
		IterTimes: e.iterTimes,
		Elapsed:   elapsed,
		Stats:     e.Sim.Stats(),
	}, nil
}

// execStmts interprets statements on the control thread.
func (e *Engine) execStmts(stmts []ir.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Fill:
			if st := e.stores[s.Target.Root()]; st != nil {
				ir.FillRegion(st, s.Target, s.Field, func(geometry.Point) float64 { return s.Value })
			}
		case *ir.FillFunc:
			if st := e.stores[s.Target.Root()]; st != nil {
				ir.FillRegion(st, s.Target, s.Field, s.Fn)
			}
		case *ir.SetScalar:
			e.env.Set(s.Name, s.Expr(e.env))
		case *ir.Loop:
			e.execLoop(s)
		case *ir.Launch:
			e.issueLaunch(s)
		default:
			panic(fmt.Sprintf("rt: unknown statement %T", s))
		}
	}
}

// execLoop runs a sequential loop with a bounded scheduling window: the
// control thread may issue iteration t while iterations t-1..t-Window are
// still executing, mirroring Legion's deferred execution.
func (e *Engine) execLoop(l *ir.Loop) {
	window := e.Over.Window
	if window < 1 {
		window = 1
	}
	iterDone := make([]realm.Event, l.Trip)
	times := make([]realm.Time, l.Trip)
	savedEvents := e.iterEvents
	ts := e.beginTrace(l)
	for t := 0; t < l.Trip; t++ {
		if t >= window {
			e.ctl.WaitEvent(iterDone[t-window])
		}
		e.env.Set(l.Var, float64(t))
		e.curIter = t
		e.iterEvents = nil
		if ts != nil {
			ts.beginIter(e)
		}
		e.execStmts(l.Body)
		if ts != nil {
			ts.endIter(e)
		}
		done := e.Sim.Merge(e.iterEvents...)
		iterDone[t] = done
		t := t
		e.Sim.OnTrigger(done, func() { times[t] = e.Sim.Now() })
	}
	e.endTrace(ts)
	// Drain the loop before code after it runs.
	for t := max(0, l.Trip-window); t < l.Trip; t++ {
		e.ctl.WaitEvent(iterDone[t])
	}
	e.iterEvents = savedEvents
	e.iterTimes[l] = times
}
