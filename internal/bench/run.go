package bench

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/rt"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// Config names one point of the space a program can run at: backend,
// lowering, plan memoization and sharing, aggregation and pruning, faults
// and recovery, machine shape and overheads. RunCR and RunImplicit run a
// program there; MeasureCR and MeasureImplicit are RunCR and RunImplicit at
// the point a figure cell names, timed.
type Config struct {
	MeasureOpts
	// Nodes is the machine's node count. Shards is the CR shard count
	// (0 = Nodes).
	Nodes, Shards int
	// Sync is the CR lowering of the loops' synchronization.
	Sync cr.SyncMode
	// Mode is how kernels run; the zero value, ir.ExecReal, runs them.
	Mode ir.ExecMode
	// Recov is the SPMD executor's checkpoint/restart (the zero value is
	// off).
	Recov spmd.Recovery
	// Tune sets the engines' overheads from a calibration (nil = each
	// engine's defaults for the machine's cores). It sets every overhead
	// it has a field for, so a row that changes one overhead starts from
	// the engine's defaults.
	Tune *Tuning
	// Exec is the machine to run on (nil = build the one Backend and
	// Nodes name, at realm.DefaultConfig, with Fit or Policy installed).
	// Faults are injected into it either way. It is the seam for wrapping
	// a machine or giving it another shape.
	Exec realm.Exec
}

// Options is what control replication compiles a loop with at this
// point: Shards shards (the node count when 0), Sync and Agg.
func (c Config) Options() cr.Options {
	shards := c.Shards
	if shards == 0 {
		shards = c.Nodes
	}
	return cr.Options{NumShards: shards, Sync: c.Sync, Agg: c.Agg}
}

// Result is the record of one run.
type Result struct {
	// SeqResult holds the final stores (Real mode only) and scalars, as
	// progtest.Diff compares them against the sequential interpreter's.
	*ir.SeqResult
	Elapsed   realm.Time
	IterTimes map[*ir.Loop][]realm.Time
	Stats     realm.Stats
	// Sched is the native scheduler's counters (zero on the DES).
	Sched native.SchedStats
	// CRTrace is RunCR's plan memoization counters, ImplicitTrace
	// RunImplicit's loop-trace counters.
	CRTrace       spmd.TraceStats
	ImplicitTrace rt.TraceStats
	// Faults is the SPMD executor's fault report (nil on a fault-free run
	// without recovery).
	Faults *spmd.FaultReport
	// Suite holds every certified loop's passes, in program order, under
	// Agg or Prune (nil otherwise).
	Suite *verify.Suite
	// Plans is RunCR's compiled loops.
	Plans map[*ir.Loop]*cr.Compiled
}

// RunCR compiles every top-level loop of the program with control
// replication and runs it at cfg. Under Agg or Prune it first certifies
// each loop with verify.Certify and refuses a schedule with any finding.
// When the engine itself fails, the error comes with the record so far:
// plans, certificate and trace counters.
func RunCR(prog *ir.Program, cfg Config) (*Result, error) {
	plans, err := spmd.CompileAll(prog, cfg.Options())
	if err != nil {
		return nil, err
	}
	res := &Result{Plans: plans}
	if cfg.Agg || cfg.Prune {
		res.Suite = &verify.Suite{}
		for _, s := range prog.Stmts {
			if loop, ok := s.(*ir.Loop); ok {
				suite, err := verify.Certify(plans[loop], cfg.Prune)
				if err != nil {
					return nil, err
				}
				res.Suite.Reports = append(res.Suite.Reports, suite.Reports...)
			}
		}
		if !res.Suite.OK() {
			return nil, fmt.Errorf("bench: certification found %d defects in the schedule; not running it", res.Suite.NumFindings())
		}
	}
	x, err := cfg.machine()
	if err != nil {
		return nil, err
	}
	eng := spmd.New(x, prog, cfg.Mode, plans)
	eng.Recov = cfg.Recov
	if t := cfg.Tune; t != nil {
		eng.Over.ShardLaunchBase = t.ShardLaunchBase
		eng.Over.KernelCores = t.KernelCores
		eng.Over.Window = t.Window
		eng.Over.Noise = t.Noise
	}
	eng.NoTrace, eng.NoShare = cfg.NoTrace, cfg.NoShare
	run, err := eng.Run()
	res.CRTrace = eng.TraceStats()
	if err != nil {
		return res, err
	}
	res.SeqResult = &ir.SeqResult{Stores: run.Stores, Env: run.Env}
	res.Elapsed, res.IterTimes, res.Stats = run.Elapsed, run.IterTimes, run.Stats
	res.Sched, res.Faults = schedStats(x), run.Faults
	return res, nil
}

// RunImplicit runs the program on the implicit runtime at cfg. Shards,
// Sync, Recov, NoShare, Agg and Prune do not apply. When the engine fails,
// the error comes with the trace counters so far.
func RunImplicit(prog *ir.Program, cfg Config) (*Result, error) {
	x, err := cfg.machine()
	if err != nil {
		return nil, err
	}
	eng := rt.New(x, prog, cfg.Mode)
	if t := cfg.Tune; t != nil {
		eng.Over.LaunchBase = t.ImplicitLaunchBase
		eng.Over.LaunchPerSub = t.ImplicitLaunchPerSub
		eng.Over.KernelCores = t.KernelCores
		eng.Over.Window = t.ImplicitWindow
		eng.Over.Noise = t.Noise
	}
	eng.NoTrace = cfg.NoTrace
	run, err := eng.Run()
	res := &Result{ImplicitTrace: eng.TraceStats()}
	if err != nil {
		return res, err
	}
	res.SeqResult = &ir.SeqResult{Stores: run.Stores, Env: run.Env}
	res.Elapsed, res.IterTimes, res.Stats = run.Elapsed, run.IterTimes, run.Stats
	res.Sched = schedStats(x)
	return res, nil
}

// schedStats is what the native scheduler counted (zero on any other
// machine).
func schedStats(x realm.Exec) native.SchedStats {
	if m, ok := x.(*native.Machine); ok {
		return m.SchedStats()
	}
	return native.SchedStats{}
}

// machine returns the machine cfg names, with its faults injected.
func (c Config) machine() (realm.Exec, error) {
	x := c.Exec
	if x == nil {
		var err error
		if x, err = newExec(c.Backend, realm.DefaultConfig(c.Nodes)); err != nil {
			return nil, err
		}
		switch m := x.(type) {
		case *native.Machine:
			if c.Fit != nil {
				m.SetTimeRecorder(c.Fit)
			}
		case *realm.Sim:
			if c.Policy != nil {
				m.SetTimePolicy(c.Policy)
			}
		}
	}
	if c.Faults != nil {
		if err := x.InjectFaults(*c.Faults); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// SteadyState is the loop's mean per-iteration time after a warm-up of a
// quarter of its trip count (at least one iteration).
func (r *Result) SteadyState(loop *ir.Loop) (realm.Time, error) {
	return steadyState(r.IterTimes[loop], warmup(loop.Trip))
}
