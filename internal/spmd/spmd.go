// Package spmd executes control-replicated programs: the runtime support
// of §4.1 for the code the cr compiler emits. Each shard is a long-running
// thread replicating the loop's control flow over its block of the launch
// domain (§3.5). Every partition subregion has its own physical instance on
// its owner's node (the distributed-memory implementation of region
// semantics, §3); compiler-inserted copies move exactly the non-empty
// intersections between instances; synchronization is point-to-point
// between the producers and consumers of each pair (§3.4) — or global
// barriers in the naive lowering of Figure 4c — and never blocks the shard
// thread, preserving deferred execution. Region reductions fold temporary
// reduction instances into destinations with reduction copies chained in
// deterministic order (§4.3); scalar reductions use dynamic collectives
// whose results are future-valued scalars (§4.4).
package spmd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// Overheads are the shard-side control costs. Shard-local task issue is
// dramatically cheaper than the implicit runtime's central analysis — that
// asymmetry is the entire point of control replication.
type Overheads struct {
	// ShardLaunchBase is the shard-thread cost to issue one local task.
	ShardLaunchBase realm.Time
	// Window is the scheduling window in iterations for shard run-ahead.
	Window int
	// KernelCores divides kernel durations (node-granular tasks).
	KernelCores int
	// Noise optionally scales task durations per (node, iteration) to model
	// load imbalance and OS noise (nil = none).
	Noise realm.NoiseFn
}

// DefaultOverheads returns shard overheads for the given cores per node.
func DefaultOverheads(cores int) Overheads {
	return Overheads{
		ShardLaunchBase: realm.Microseconds(float64(cores) * 2),
		Window:          2,
		KernelCores:     cores,
	}
}

// Result is the outcome of an SPMD run. Faults is nil on a fault-free run
// with recovery disabled; otherwise it reports what was injected and what
// the recovery layer did about it (including graceful degradation: a run
// that exhausted its restart budget returns the last checkpoint's partial
// results with Faults.Unrecovered set, not an error).
type Result struct {
	Stores    map[*region.Region]*region.Store
	Env       ir.MapEnv
	IterTimes map[*ir.Loop][]realm.Time
	Elapsed   realm.Time
	Stats     realm.Stats
	Faults    *FaultReport
}

// Engine executes a program whose loops have been control-replicated. It
// is written against the backend-neutral realm.Exec interface: the same
// engine, recovery included, drives the DES (*realm.Sim) and the native
// goroutine backend (realm/native.Machine).
type Engine struct {
	Sim   realm.Exec
	Prog  *ir.Program
	Mode  ir.ExecMode
	Over  Overheads
	Plans map[*ir.Loop]*cr.Compiled

	// Recov configures checkpoint/restart; the zero value disables recovery
	// and executes exactly the plain SPMD schedule.
	Recov Recovery

	// NoTrace disables shard-plan memoization (see plan.go): every shard
	// re-resolves its plan every iteration instead of once per placement.
	// The schedule is identical either way; the flag exists for the trace
	// ablation and regression tests.
	NoTrace bool

	// NoShare disables cross-shard trace sharing: the engine records no
	// shared capture (so failover ships none) and counts every memoized
	// shard plan as a per-shard capture. Resolution is the same code either
	// way, so the schedule is identical; the flag exists for the
	// -trace-share ablation and regression tests.
	NoShare bool

	traceStats TraceStats

	// aggGroups and aggSaved count the coalesced transfers the shards issue
	// (Stats.AggGroups, Stats.AggSavedMessages); atomics, because shard
	// agents issue concurrently on the native backend.
	aggGroups, aggSaved atomic.Int64

	// planMu guards the memoized-plan state (traceStats, shared,
	// runState.plans): on the native backend shard agents resolve their
	// plans concurrently. Uncontended on the DES.
	planMu sync.Mutex

	// shared holds the modeled wire size of each loop's shared capture (see
	// plan.go); reset per Run.
	shared map[*cr.Compiled]int64

	// finalized, if set, sees each loop's run state once the loop has
	// finalized: the tests' window on instances and sync blocks.
	finalized func(*runState)

	global    map[*region.Region]*region.Store
	env       ir.MapEnv
	iterTimes map[*ir.Loop][]realm.Time
	report    *FaultReport
	degraded  bool // an unrecoverable loop ended the run early
}

// New creates an engine executing prog with the given compiled plans on
// any realm backend.
func New(sim realm.Exec, prog *ir.Program, mode ir.ExecMode, plans map[*ir.Loop]*cr.Compiled) *Engine {
	return &Engine{
		Sim:   sim,
		Prog:  prog,
		Mode:  mode,
		Over:  DefaultOverheads(sim.Config().CoresPerNode),
		Plans: plans,
	}
}

// CompileAll compiles every loop of the program that is a control
// replication target, returning the plan map for New.
func CompileAll(prog *ir.Program, opts cr.Options) (map[*ir.Loop]*cr.Compiled, error) {
	plans := make(map[*ir.Loop]*cr.Compiled)
	for _, s := range prog.Stmts {
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		plan, err := cr.Compile(prog, loop, opts)
		if err != nil {
			return nil, err
		}
		plans[loop] = plan
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("spmd: program has no top-level loops to replicate")
	}
	return plans, nil
}

// Run executes the program: setup statements run sequentially on the
// control thread; each planned loop runs as SPMD shards.
func (e *Engine) Run() (*Result, error) {
	if err := e.Prog.Validate(); err != nil {
		return nil, err
	}
	e.global = make(map[*region.Region]*region.Store)
	if e.Mode == ir.ExecReal {
		e.global = e.Prog.NewStores()
	}
	e.env = ir.MapEnv{}
	for k, v := range e.Prog.Scalars {
		e.env[k] = v
	}
	e.iterTimes = make(map[*ir.Loop][]realm.Time)
	e.report = nil
	e.degraded = false
	e.traceStats = TraceStats{}
	e.aggGroups.Store(0)
	e.aggSaved.Store(0)
	e.shared = nil

	elapsed, err := realm.RunControl(e.Sim, "spmd", "spmd-control", func(ctl realm.Agent) {
		e.execStmts(ctl, e.Prog.Stmts)
	})
	if err != nil {
		return nil, err
	}
	if crashes := e.Sim.Crashes(); len(crashes) > 0 {
		e.rep().Crashes = crashes
	}
	stats := e.Sim.Stats()
	stats.AggGroups, stats.AggSavedMessages = e.aggGroups.Load(), e.aggSaved.Load()
	stats.TraceShips, stats.TraceShipBytes = int64(e.traceStats.Ships), e.traceStats.ShippedBytes
	return &Result{
		Stores:    e.global,
		Env:       e.env,
		IterTimes: e.iterTimes,
		Elapsed:   elapsed,
		Stats:     stats,
		Faults:    e.report,
	}, nil
}

// TraceStats reports the memoized shard-plan counters of the last
// Run.
func (e *Engine) TraceStats() TraceStats { return e.traceStats }

func (e *Engine) execStmts(ctl realm.Agent, stmts []ir.Stmt) {
	for _, s := range stmts {
		if e.degraded {
			return // an unrecoverable loop degraded: stop at its checkpoint
		}
		switch s := s.(type) {
		case *ir.Fill:
			if st := e.global[s.Target.Root()]; st != nil {
				ir.FillRegion(st, s.Target, s.Field, func(geometry.Point) float64 { return s.Value })
			}
		case *ir.FillFunc:
			if st := e.global[s.Target.Root()]; st != nil {
				ir.FillRegion(st, s.Target, s.Field, s.Fn)
			}
		case *ir.SetScalar:
			e.env[s.Name] = s.Expr(e.env)
		case *ir.Launch:
			// Setup launches outside replicated loops run with sequential
			// semantics on the control thread (untimed: benchmarks measure
			// the replicated loops).
			if e.Mode == ir.ExecReal {
				ir.ExecLaunchSeq(e.global, e.env, s)
			}
		case *ir.Loop:
			if plan, ok := e.Plans[s]; ok {
				e.runReplicated(ctl, plan)
			} else if e.Mode == ir.ExecReal {
				// Unplanned loops also run sequentially.
				for t := 0; t < s.Trip; t++ {
					e.env[s.Var] = float64(t)
					e.execStmts(ctl, s.Body)
				}
			}
		default:
			panic(fmt.Sprintf("spmd: unknown statement %T", s))
		}
	}
}
