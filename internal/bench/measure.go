// Package bench is the benchmark harness that regenerates the paper's
// evaluation: the weak-scaling figures (6-9) and the intersection-timing
// table (Table 1). It runs each application under every system variant —
// Regent with control replication, Regent without (the implicit runtime),
// and the hand-written MPI(+X) reference codes — on the simulated machine,
// and reports per-node throughput series.
package bench

import (
	"fmt"
	"sync"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/rt"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// Backend names accepted by MeasureOpts.Backend and NewExec. The empty
// string means BackendDES.
const (
	BackendDES    = "des"
	BackendNative = "native"
)

// NewExec constructs the requested realm backend for a machine of the
// given node count: the deterministic discrete-event simulator, or the
// native shared-memory backend running on real goroutines.
func NewExec(backend string, nodes int) (realm.Exec, error) {
	switch backend {
	case "", BackendDES:
		return realm.NewSim(realm.DefaultConfig(nodes))
	case BackendNative:
		return native.NewMachine(realm.DefaultConfig(nodes))
	default:
		return nil, fmt.Errorf("bench: unknown backend %q (want %q or %q)", backend, BackendDES, BackendNative)
	}
}

// Tuning carries the per-application calibration of runtime overheads (see
// EXPERIMENTS.md for how the constants were chosen).
type Tuning struct {
	// Implicit (non-CR) runtime: central per-task launch/analysis costs.
	ImplicitLaunchBase   realm.Time
	ImplicitLaunchPerSub realm.Time
	// Shard-side per-task issue cost under CR.
	ShardLaunchBase realm.Time
	// KernelCores divides kernel durations; Regent configurations dedicate
	// one core per node to runtime analysis (the PENNANT effect, §5.3), so
	// this is typically cores-1 for Regent and cores for MPI.
	KernelCores int
	// Window is the CR shards' deferred-execution scheduling window in
	// iterations. ImplicitWindow is the central runtime's effective window:
	// 1, because with thousands of queued launches the analysis pipeline
	// backs up and launch cost lands on the critical path (this reproduces
	// the measured gradual rolloff of Figures 6-9; see EXPERIMENTS.md).
	Window         int
	ImplicitWindow int
	// Noise models load imbalance / OS noise on task durations (nil = none).
	Noise realm.NoiseFn
}

// DefaultTuning returns the calibration shared by the applications unless
// they override specific constants.
func DefaultTuning(cores int) Tuning {
	return Tuning{
		// Central runtime: ~350us of analysis+mapping per core-granularity
		// task plus a region-tree component growing with subregion count;
		// tasks here are node-granular, so both scale by the core count.
		ImplicitLaunchBase:   realm.Microseconds(float64(cores) * 350),
		ImplicitLaunchPerSub: realm.Microseconds(float64(cores) * 26),
		ShardLaunchBase:      realm.Microseconds(float64(cores) * 2),
		KernelCores:          cores - 1,
		Window:               2,
		ImplicitWindow:       1,
	}
}

// steadyState returns the mean per-iteration time of the recorded
// completion times, skipping warm-up iterations. A warm-up that leaves
// fewer than two samples is an error: silently measuring from iteration 0
// would fold first-iteration startup (instance creation, cold caches in the
// modeled runtime) into the steady-state rate and misreport it.
func steadyState(times []realm.Time, skip int) (realm.Time, error) {
	if len(times) < 2 {
		return 0, fmt.Errorf("bench: need at least 2 iterations, got %d", len(times))
	}
	if len(times)-skip < 2 {
		return 0, fmt.Errorf("bench: warm-up of %d iterations leaves %d of %d samples for steady state (need at least 2); increase the iteration count",
			skip, len(times)-skip, len(times))
	}
	return (times[len(times)-1] - times[skip]) / realm.Time(len(times)-1-skip), nil
}

// MeasureOpts carries the per-measurement switches shared by the systems
// under test. The zero value is a fault-free run with tracing on.
type MeasureOpts struct {
	// Faults injects deterministic faults into the machine (nil =
	// fault-free). The implicit runtime has no recovery, so an injected
	// crash surfaces as an error (a *realm.DeadlockError naming the blocked
	// threads on the DES; rejected up front on native, where an
	// unrecoverable hang would only be caught by the wall-clock watchdog);
	// the SPMD executor recovers via its default checkpoint/restart on both
	// backends.
	Faults *realm.FaultPlan
	// NoTrace disables trace capture/replay in both runtimes (the implicit
	// runtime's loop traces and the SPMD executor's shard plans). The
	// simulated schedule is identical either way — the flag exists for the
	// trace ablation series and wall-clock comparisons.
	NoTrace bool
	// NoShare disables cross-shard trace sharing in the SPMD executor:
	// every shard captures its own plan (O(shards) capture work) instead of
	// specializing one shared capture. Schedules are identical either way —
	// the flag exists for the -trace-share ablation.
	NoShare bool
	// Trace, when non-nil, accumulates both runtimes' trace counters across
	// the measurement (safe under the parallel sweep harness).
	Trace *TraceAgg
	// Backend selects the realm backend: BackendDES ("" or "des") runs the
	// deterministic simulator in Modeled mode and reports virtual time;
	// BackendNative runs real kernels on real goroutines (ir.ExecReal) and
	// reports wall-clock time. The MPI baselines are DES-only and return
	// realm.UnsupportedError on native; fault injection runs on both
	// backends for the CR executor (the implicit runtime rejects it on
	// native, having no recovery to hang usefully without).
	Backend string
	// Procs sets the native machine's per-node worker count (0 = an equal
	// share of GOMAXPROCS). Ignored on the DES.
	Procs int
	// Fit, when non-nil, receives a wall-clock sample for every launch and
	// copy body the native machine executes (pass a *realm.MeasuredTime to
	// build a fitted TimePolicy from the run). Ignored on the DES.
	Fit realm.TimeRecorder
	// Policy, when non-nil, replaces the DES's time-charging policy (e.g. a
	// realm.MeasuredTime imported from a native calibration run). Ignored
	// on native, whose time is wall-clock.
	Policy realm.TimePolicy
	// Sched, when non-nil, accumulates the native machine's scheduler
	// counters across the measurement (safe under the parallel sweep
	// harness). Ignored on the DES.
	Sched *SchedAgg
	// Prune runs the certified redundant-sync pruning pass
	// (verify.PlanPrune) over every CR-compiled loop and attaches the
	// licensed PruneInfo, so the executor skips the pruned sync connects and
	// dead initialization populations. Off by default; stores and series are
	// identical either way — only sync-edge and message counts drop.
	Prune bool
	// PruneStats, when non-nil, accumulates the prune pass's counters
	// across the measurement (safe under the parallel sweep harness).
	PruneStats *PruneAgg
	// Agg compiles every CR loop with coalesced exchange plans: each
	// exchange phase's copy pairs are merged into one transfer per
	// (producing shard, destination shard), certified by verify.CheckAgg
	// before anything runs — the aggregation analogue of the Prune
	// license. Off by default; stores and series are identical either way,
	// only message counts drop (bytes are conserved). With Prune as well,
	// the prune is planned for, and certified on, the aggregated schedule.
	Agg bool
	// AggStats, when non-nil, accumulates the aggregation certification's
	// static shape counters and the runtime's coalescing counters across
	// the measurement (safe under the parallel sweep harness).
	AggStats *AggCounters
}

// NativeBackend reports whether the options select the native backend.
func (o MeasureOpts) NativeBackend() bool { return o.Backend == BackendNative }

// applyExecOpts configures a freshly built backend from the options:
// scheduler sizing and the time recorder on native; the time-policy
// override on the DES.
func applyExecOpts(sim realm.Exec, opts MeasureOpts) {
	switch b := sim.(type) {
	case *native.Machine:
		if opts.Procs > 0 {
			b.SetProcs(opts.Procs)
		}
		if opts.Fit != nil {
			b.SetTimeRecorder(opts.Fit)
		}
	case *realm.Sim:
		if opts.Policy != nil {
			b.SetTimePolicy(opts.Policy)
		}
	}
}

// collectSched folds the machine's scheduler counters into the
// aggregator, when both sides exist.
func collectSched(sim realm.Exec, opts MeasureOpts) {
	if opts.Sched == nil {
		return
	}
	if mach, ok := sim.(*native.Machine); ok {
		opts.Sched.add(mach.SchedStats())
	}
}

// SchedAgg accumulates native scheduler counters across the (possibly
// parallel) measurements of a sweep. Pass one instance through
// MeasureOpts.Sched.
type SchedAgg struct {
	mu sync.Mutex
	s  native.SchedStats
}

func (a *SchedAgg) add(s native.SchedStats) {
	a.mu.Lock()
	if s.Workers > a.s.Workers {
		a.s.Workers = s.Workers // pool size, not additive across cells
	}
	a.s.Dispatches += s.Dispatches
	a.s.Steals += s.Steals
	a.s.LocalSteals += s.LocalSteals
	a.s.RemoteSteals += s.RemoteSteals
	a.s.InlineCompletions += s.InlineCompletions
	a.mu.Unlock()
}

// Snapshot returns the accumulated counters.
func (a *SchedAgg) Snapshot() native.SchedStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}

// PruneAgg accumulates the prune pass's counters (pruned wars/dones/chains,
// sync edges before/after, dead init copies) across the (possibly parallel)
// measurements of a sweep. Pass one instance through MeasureOpts.PruneStats.
type PruneAgg struct {
	mu sync.Mutex
	c  map[string]int64
}

func (a *PruneAgg) add(counters map[string]int64) {
	a.mu.Lock()
	if a.c == nil {
		a.c = make(map[string]int64, len(counters))
	}
	for k, v := range counters {
		a.c[k] += v
	}
	a.mu.Unlock()
}

// Snapshot returns a copy of the accumulated counters.
func (a *PruneAgg) Snapshot() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.c))
	for k, v := range a.c {
		out[k] = v
	}
	return out
}

// AggCounters accumulates the coalescing pass's counters — the static
// shape from verify.CheckAgg (phases, groups, merged pairs) plus the
// runtime's per-run coalescing counters (groups issued, messages saved) —
// across the (possibly parallel) measurements of a sweep. Pass one
// instance through MeasureOpts.AggStats.
type AggCounters struct {
	mu sync.Mutex
	c  map[string]int64
}

func (a *AggCounters) add(counters map[string]int64) {
	a.mu.Lock()
	if a.c == nil {
		a.c = make(map[string]int64, len(counters))
	}
	for k, v := range counters {
		a.c[k] += v
	}
	a.mu.Unlock()
}

// Snapshot returns a copy of the accumulated counters.
func (a *AggCounters) Snapshot() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.c))
	for k, v := range a.c {
		out[k] = v
	}
	return out
}

// TraceAgg accumulates trace-layer counters across the (possibly parallel)
// measurements of a sweep. Pass one instance through MeasureOpts.Trace.
type TraceAgg struct {
	mu   sync.Mutex
	rt   rt.TraceStats
	spmd spmd.TraceStats
}

func (a *TraceAgg) addRT(s rt.TraceStats) {
	a.mu.Lock()
	a.rt.LoopsTraced += s.LoopsTraced
	a.rt.CaptureIters += s.CaptureIters
	a.rt.Promotions += s.Promotions
	a.rt.ReplayedIters += s.ReplayedIters
	a.rt.ReplayedLaunches += s.ReplayedLaunches
	a.rt.Invalidations += s.Invalidations
	a.rt.Abandoned += s.Abandoned
	a.rt.SharedPoints += s.SharedPoints
	a.mu.Unlock()
}

func (a *TraceAgg) addSPMD(s spmd.TraceStats) {
	a.mu.Lock()
	a.spmd.Captures += s.Captures
	a.spmd.PerShardCaptures += s.PerShardCaptures
	a.spmd.Specializations += s.Specializations
	a.spmd.ReplayedIters += s.ReplayedIters
	a.spmd.Invalidations += s.Invalidations
	a.spmd.Ships += s.Ships
	a.spmd.ShippedBytes += s.ShippedBytes
	a.mu.Unlock()
}

// Snapshot returns the accumulated counters.
func (a *TraceAgg) Snapshot() (rt.TraceStats, spmd.TraceStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rt, a.spmd
}

// MeasureImplicit runs the program on the implicit (non-CR) runtime in
// Modeled mode and returns the steady-state per-iteration time of the
// given loop.
func MeasureImplicit(prog *ir.Program, loop *ir.Loop, nodes int, tune Tuning, opts MeasureOpts) (realm.Time, error) {
	sim, err := NewExec(opts.Backend, nodes)
	if err != nil {
		return 0, err
	}
	applyExecOpts(sim, opts)
	mode := rt.Modeled
	if opts.NativeBackend() {
		// On real cores only real execution is meaningful: the control
		// thread's dependence analysis and the kernels are the cost.
		mode = rt.Real
	}
	if opts.Faults != nil {
		// The implicit runtime has no recovery. On the DES an injected crash
		// deadlocks the event loop immediately (a structured DeadlockError);
		// on native it would only stall until the watchdog fires, wasting a
		// full hang timeout per sweep cell — so reject the combination.
		if opts.NativeBackend() {
			return 0, &realm.UnsupportedError{Backend: sim.Backend(), Op: "fault injection without recovery (implicit runtime)"}
		}
		fx, ok := sim.(realm.FaultExec)
		if !ok {
			return 0, &realm.UnsupportedError{Backend: sim.Backend(), Op: "fault injection"}
		}
		if err := fx.InjectFaults(*opts.Faults); err != nil {
			return 0, err
		}
	}
	eng := rt.New(sim, prog, mode)
	eng.Over.LaunchBase = tune.ImplicitLaunchBase
	eng.Over.LaunchPerSub = tune.ImplicitLaunchPerSub
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.ImplicitWindow
	eng.Over.Noise = tune.Noise
	eng.NoTrace = opts.NoTrace
	res, err := eng.Run()
	if err != nil {
		return 0, err
	}
	if opts.Trace != nil {
		opts.Trace.addRT(eng.TraceStats())
	}
	collectSched(sim, opts)
	return steadyState(res.IterTimes[loop], warmup(loop.Trip))
}

// MeasureCR compiles the loop with control replication (one shard per
// node), runs it in Modeled mode, and returns the steady-state
// per-iteration time. A non-nil fault plan injects faults and enables the
// SPMD executor's default checkpoint/restart recovery; a run that
// degrades (recovery budget exhausted) is reported as an error since its
// timings are not a valid steady-state measurement.
func MeasureCR(prog *ir.Program, loop *ir.Loop, nodes int, sync cr.SyncMode, tune Tuning, opts MeasureOpts) (realm.Time, error) {
	plan, err := cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: sync, Agg: opts.Agg})
	if err != nil {
		return 0, err
	}
	if opts.Agg {
		rep, err := verify.CheckAgg(plan)
		if err != nil {
			return 0, err
		}
		if !rep.OK() {
			return 0, fmt.Errorf("bench: aggregation certification found %d defects in the coalesced schedule; not aggregating", len(rep.Findings))
		}
		if opts.AggStats != nil {
			opts.AggStats.add(rep.Counters)
		}
	}
	if opts.Prune {
		info, rep, err := verify.PlanPrune(plan)
		if err != nil {
			return 0, err
		}
		if !rep.OK() {
			return 0, fmt.Errorf("bench: prune pass found %d defects in the unpruned schedule; not pruning", len(rep.Findings))
		}
		plan.Prune = info
		if opts.PruneStats != nil {
			opts.PruneStats.add(rep.Counters)
		}
	}
	sim, err := NewExec(opts.Backend, nodes)
	if err != nil {
		return 0, err
	}
	applyExecOpts(sim, opts)
	mode := ir.ExecModeled
	if opts.NativeBackend() {
		mode = ir.ExecReal
	}
	eng := spmd.New(sim, prog, mode, map[*ir.Loop]*cr.Compiled{loop: plan})
	if opts.Faults != nil {
		fx, ok := sim.(realm.FaultExec)
		if !ok {
			return 0, &realm.UnsupportedError{Backend: sim.Backend(), Op: "fault injection"}
		}
		if err := fx.InjectFaults(*opts.Faults); err != nil {
			return 0, err
		}
		eng.Recov = spmd.DefaultRecovery()
	}
	eng.Over.ShardLaunchBase = tune.ShardLaunchBase
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.Window
	eng.Over.Noise = tune.Noise
	eng.NoTrace = opts.NoTrace
	eng.NoShare = opts.NoShare
	res, err := eng.Run()
	if err != nil {
		return 0, err
	}
	if opts.Trace != nil {
		opts.Trace.addSPMD(eng.TraceStats())
	}
	collectSched(sim, opts)
	if opts.AggStats != nil && opts.Agg {
		st := sim.Stats()
		opts.AggStats.add(map[string]int64{
			"runtime_messages":       st.Messages,
			"runtime_agg_groups":     st.AggGroups,
			"runtime_saved_messages": st.AggSavedMessages,
		})
	}
	if res.Faults != nil && res.Faults.Unrecovered {
		return 0, fmt.Errorf("bench: %s", res.Faults.Reason)
	}
	return steadyState(res.IterTimes[loop], warmup(loop.Trip))
}

// CompileForTimings compiles the loop and returns the plan, exposing the
// intersection timings for the Table 1 harness.
func CompileForTimings(prog *ir.Program, loop *ir.Loop, nodes int) (*cr.Compiled, error) {
	return cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: cr.PointToPoint})
}

func warmup(trip int) int {
	w := trip / 4
	if w < 1 {
		w = 1
	}
	return w
}
