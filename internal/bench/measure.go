// Package bench is the benchmark harness that regenerates the paper's
// evaluation: the weak-scaling figures (6-9) and the intersection-timing
// table (Table 1). It runs each application under every system variant —
// Regent with control replication, Regent without (the implicit runtime),
// and the hand-written MPI(+X) reference codes — on the simulated machine,
// and reports per-node throughput series.
package bench

import (
	"fmt"
	"maps"
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
	return newExec(backend, realm.DefaultConfig(nodes))
}

// newExec constructs the requested backend for a machine configuration.
func newExec(backend string, cfg realm.Config) (realm.Exec, error) {
	switch backend {
	case "", BackendDES:
		return realm.NewSim(cfg)
	case BackendNative:
		return native.NewMachine(cfg)
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

// MeasureOpts is how a cell is measured: every switch the systems under
// test share, and the table their counters come back in. It is the only
// description of a measurement — a command line parses into one, a sweep
// hands it to every cell. The zero value is a fault-free DES run with
// tracing on that records no counters.
type MeasureOpts struct {
	// Faults injects deterministic faults into the machine (nil =
	// fault-free). The implicit runtime has no recovery, so an injected
	// crash surfaces as a *realm.DeadlockError naming the blocked agents on
	// both backends; the SPMD executor recovers via its default
	// checkpoint/restart.
	Faults *realm.FaultPlan
	// NoTrace disables trace capture/replay in both runtimes (the implicit
	// runtime's loop traces and the SPMD executor's shard plans). The
	// simulated schedule is identical either way — the flag exists for the
	// trace ablation series and wall-clock comparisons.
	NoTrace bool
	// NoShare disables cross-shard trace sharing in the SPMD executor: no
	// shared capture is recorded or shipped on failover, and every shard
	// plan counts as a per-shard capture. Resolution and schedules are
	// identical either way — the flag exists for the -trace-share ablation.
	NoShare bool
	// Backend selects the realm backend: BackendDES ("" or "des") runs the
	// deterministic simulator in Modeled mode and reports virtual time;
	// BackendNative runs real kernels on real goroutines (ir.ExecReal) and
	// reports wall-clock time. The MPI baselines are DES-only and return
	// realm.UnsupportedError on native; fault injection runs on both
	// backends.
	Backend string
	// Fit, when non-nil, receives a wall-clock sample for every launch and
	// copy body the native machine executes (pass a *realm.MeasuredTime to
	// build a fitted TimePolicy from the run). Ignored on the DES.
	Fit realm.TimeRecorder
	// Policy, when non-nil, replaces the DES's time-charging policy (e.g. a
	// realm.MeasuredTime imported from a native calibration run). Ignored
	// on native, whose time is wall-clock.
	Policy realm.TimePolicy
	// Prune runs the certified redundant-sync pruning pass
	// (verify.PlanPrune) over every CR-compiled loop and attaches the
	// licensed PruneInfo, so the executor skips the pruned sync connects and
	// dead initialization populations. Off by default; stores and series are
	// identical either way — only sync-edge and message counts drop.
	Prune bool
	// Agg compiles every CR loop with coalesced exchange plans: each
	// exchange phase's copy pairs are merged into one transfer per
	// (producing shard, destination shard), certified by verify.CheckAgg
	// before anything runs — the aggregation analogue of the Prune
	// license. Off by default; stores and series are identical either way,
	// only message counts drop (bytes are conserved). With Prune as well,
	// the prune is planned for, and certified on, the aggregated schedule.
	// Under either, MeasureCR runs verify.Certify and refuses a schedule
	// with any finding.
	Agg bool
	// Counters, when non-nil, receives what the measurement's engines
	// counted: rt.TraceStats, spmd.TraceStats, native.SchedStats, the
	// CheckAgg and PlanPrune report counters and, under Agg, the run's
	// message counts.
	Counters *Counters
}

// NativeBackend reports whether the options select the native backend.
func (o MeasureOpts) NativeBackend() bool { return o.Backend == BackendNative }

// Counters is a table of named counters summed over the (possibly
// parallel) measurements of a sweep. Names are "layer.metric", and
// BENCHMARK.json's name wherever it already names the quantity. The zero
// value is ready to use; a nil *Counters records nothing.
type Counters struct {
	mu sync.Mutex
	c  map[string]int64
}

// Add adds v to the named counter.
func (c *Counters) Add(name string, v int64) {
	c.update(name, func(old int64) int64 { return old + v })
}

// update replaces the named counter by f of its value (0 when new).
func (c *Counters) update(name string, f func(old int64) int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.c == nil {
		c.c = make(map[string]int64)
	}
	c.c[name] = f(c.c[name])
	c.mu.Unlock()
}

// Snapshot returns a copy of the table.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.c)
}

// addRT adds the implicit runtime's trace counters.
func (c *Counters) addRT(s rt.TraceStats) {
	c.Add("rt.loops_traced", int64(s.LoopsTraced))
	c.Add("rt.capture_iters", int64(s.CaptureIters))
	c.Add("rt.promotions", int64(s.Promotions))
	c.Add("rt.replayed_iters", int64(s.ReplayedIters))
	c.Add("rt.replayed_launches", int64(s.ReplayedLaunches))
	c.Add("rt.invalidations", int64(s.Invalidations))
	c.Add("rt.abandoned", int64(s.Abandoned))
	c.Add("rt.shared_points", int64(s.SharedPoints))
}

// addSPMD adds the SPMD executor's trace counters.
func (c *Counters) addSPMD(s spmd.TraceStats) {
	c.Add("spmd.captures", int64(s.Captures))
	c.Add("spmd.per_shard_captures", int64(s.PerShardCaptures))
	c.Add("spmd.specializations", int64(s.Specializations))
	c.Add("spmd.replayed_iters", int64(s.ReplayedIters))
	c.Add("spmd.invalidations", int64(s.Invalidations))
	c.Add("spmd.trace_ships", int64(s.Ships))
	c.Add("spmd.trace_shipped_bytes", s.ShippedBytes)
}

// addSched adds the native scheduler's counters.
func (c *Counters) addSched(s native.SchedStats) {
	// The pool size is a property of the machine, not additive across cells.
	c.update("native.workers", func(old int64) int64 { return max(old, int64(s.Workers)) })
	c.Add("native.dispatches", s.Dispatches)
	c.Add("native.steals", s.Steals)
	c.Add("native.inline_completions", s.InlineCompletions)
}

// addMachine adds what the machine itself counted over a finished run: the
// native scheduler's counters (the DES has none).
func (c *Counters) addMachine(opts MeasureOpts, res *Result) {
	if opts.NativeBackend() {
		c.addSched(res.Sched)
	}
}

// addSuite adds the certifier's counters: CheckAgg's grouping and every
// PlanPrune counter.
func (c *Counters) addSuite(s *verify.Suite) {
	if s == nil {
		return
	}
	for _, rep := range s.Reports {
		switch rep.Pass {
		case "agg":
			c.Add("verify.agg_phases", rep.Counters["phases"])
			c.Add("verify.agg_groups", rep.Counters["agg_groups"])
			c.Add("verify.agg_multi_member_groups", rep.Counters["multi_member_groups"])
			c.Add("verify.agg_merged_pairs", rep.Counters["merged_pairs"])
		case "prune":
			for name, v := range rep.Counters {
				//detlint:ignore a sum per name: the table is the same in any order
				c.Add("verify."+name, v)
			}
		}
	}
}

// measured is the point a figure cell runs at: Modeled on the DES, Real on
// native (where the kernels are the cost), with the default recovery under
// faults.
func measured(nodes int, sync cr.SyncMode, tune Tuning, opts MeasureOpts) Config {
	cfg := Config{MeasureOpts: opts, Nodes: nodes, Sync: sync, Mode: ir.ExecModeled, Tune: &tune}
	if opts.NativeBackend() {
		cfg.Mode = ir.ExecReal
	}
	if opts.Faults != nil {
		cfg.Recov = spmd.DefaultRecovery()
	}
	return cfg
}

// MeasureImplicit runs the program on the implicit (non-CR) runtime in
// Modeled mode and returns the steady-state per-iteration time of the
// given loop.
func MeasureImplicit(prog *ir.Program, loop *ir.Loop, nodes int, tune Tuning, opts MeasureOpts) (realm.Time, error) {
	res, err := RunImplicit(prog, measured(nodes, 0, tune, opts))
	if err != nil {
		return 0, err
	}
	opts.Counters.addRT(res.ImplicitTrace)
	opts.Counters.addMachine(opts, res)
	return res.SteadyState(loop)
}

// MeasureCR runs the program through RunCR (one shard per node) in
// Modeled mode and returns the given loop's steady-state per-iteration
// time. Every top-level loop of the program is compiled with control
// replication, and under Agg or Prune certified, not only the given one;
// loop selects the series the time is read from. A non-nil fault plan injects faults and enables the
// SPMD executor's default checkpoint/restart recovery; a run that
// degrades (recovery budget exhausted) is reported as an error since its
// timings are not a valid steady-state measurement.
func MeasureCR(prog *ir.Program, loop *ir.Loop, nodes int, sync cr.SyncMode, tune Tuning, opts MeasureOpts) (realm.Time, error) {
	res, err := RunCR(prog, measured(nodes, sync, tune, opts))
	if res != nil {
		opts.Counters.addSuite(res.Suite)
	}
	if err != nil {
		return 0, err
	}
	opts.Counters.addSPMD(res.CRTrace)
	opts.Counters.addMachine(opts, res)
	if opts.Agg {
		opts.Counters.Add("realm.messages", res.Stats.Messages)
		opts.Counters.Add("realm.agg_groups", res.Stats.AggGroups)
		opts.Counters.Add("realm.agg_saved_messages", res.Stats.AggSavedMessages)
	}
	if res.Faults != nil && res.Faults.Unrecovered {
		return 0, fmt.Errorf("bench: %s", res.Faults.Reason)
	}
	return res.SteadyState(loop)
}

func warmup(trip int) int {
	w := trip / 4
	if w < 1 {
		w = 1
	}
	return w
}
