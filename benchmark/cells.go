package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/rt"
	"repro/internal/spmd"
	"repro/internal/verify"
)

// sizing selects which of an application's configurations a cell builds.
type sizing int

const (
	sizePaper  sizing = iota // Default(n): the weak-scaling figures, Modeled mode
	sizeSmall                // Small(n): correctness size, Real mode on the DES
	sizeNative               // the size App.Measure uses with Backend: native
)

// appSpec is what the layer-by-layer cells need to know about one
// evaluation application: how to build it, and the tuning App.Measure
// applies to it. The noise constants are unexported in the app packages, so
// they are repeated here; des_figs checks in its traced run that cells
// built from them regenerate the same figure text as harness.RunFigure.
type appSpec struct {
	name   string
	figure int
	iters  int // harness.Apps()[i].Iters
	noise  realm.NoiseFn
	build  func(sz sizing, pieces, iters int) (*ir.Program, *ir.Loop)
}

func withIters(def, iters int) int {
	if iters > 0 {
		return iters
	}
	return def
}

var appSpecs = []appSpec{
	{name: "stencil", figure: 6, iters: 10,
		build: func(sz sizing, n, iters int) (*ir.Program, *ir.Loop) {
			cfg := stencil.Default(n)
			switch sz {
			case sizeSmall:
				cfg = stencil.Small(n)
			case sizeNative:
				cfg = stencil.Native(n)
			}
			cfg.Iters = withIters(cfg.Iters, iters)
			a := stencil.Build(cfg)
			return a.Prog, a.Loop
		}},
	{name: "miniaero", figure: 7, iters: 10, noise: realm.SpikeNoise(0.02, 0.06, 0xae50),
		build: func(sz sizing, n, iters int) (*ir.Program, *ir.Loop) {
			cfg := miniaero.Default(n)
			if sz == sizeSmall {
				cfg = miniaero.Small(n)
			}
			cfg.Iters = withIters(cfg.Iters, iters)
			a := miniaero.Build(cfg)
			return a.Prog, a.Loop
		}},
	{name: "pennant", figure: 8, iters: 12, noise: realm.SpikeNoise(0.02, 0.24, 0x5eed),
		build: func(sz sizing, n, iters int) (*ir.Program, *ir.Loop) {
			cfg := pennant.Default(n)
			if sz == sizeSmall {
				cfg = pennant.Small(n)
			}
			cfg.Iters = withIters(cfg.Iters, iters)
			a := pennant.Build(cfg)
			return a.Prog, a.Loop
		}},
	{name: "circuit", figure: 9, iters: 10,
		build: func(sz sizing, n, iters int) (*ir.Program, *ir.Loop) {
			cfg := circuit.Default(n)
			if sz == sizeSmall {
				cfg = circuit.Small(n)
			}
			cfg.Iters = withIters(cfg.Iters, iters)
			a := circuit.Build(cfg)
			return a.Prog, a.Loop
		}},
}

func specByName(name string) appSpec {
	for _, a := range appSpecs {
		if a.name == name {
			return a
		}
	}
	panic("benchmark: unknown app " + name)
}

// buildSpan builds the app under an apps.build span at the given node count.
func (a appSpec) buildSpan(tr *tracer, sz sizing, nodes, pieces, iters int) (*ir.Program, *ir.Loop) {
	tr.at(nodes)
	defer tr.span("apps.build")()
	return a.build(sz, pieces, iters)
}

// tuning is the calibration App.Measure runs the Regent systems with.
func (a appSpec) tuning(nodes int) bench.Tuning {
	t := bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
	t.Noise = a.noise
	return t
}

// runOpts are the switches of one engine run; the zero value is the default
// path of the figures (p2p, trace on, share on, no aggregation, no faults).
type runOpts struct {
	sync    cr.SyncMode
	noTrace bool
	noShare bool
	agg     bool
	faults  *realm.FaultPlan
	real    bool   // Real mode (kernels execute) instead of Modeled
	backend string // bench.BackendDES ("") or bench.BackendNative
	rec     realm.TimeRecorder
}

// runOut is everything a cell reads back from one engine run.
type runOut struct {
	perIter   realm.Time   // steady-state, as bench.MeasureCR reports it
	iterTimes []realm.Time // completion time of every iteration
	elapsed   realm.Time
	wall      time.Duration // host wall of Engine.Run
	allocMB   float64       // allocated by Engine.Run (traced runs only)
	stats     realm.Stats
	strace    spmd.TraceStats
	rtrace    rt.TraceStats
	faults    *spmd.FaultReport
	sched     native.SchedStats
	plan      *cr.Compiled
	aggRep    *verify.Report
	sum       string // checksum of the final stores (Real mode)
}

// steadyState mirrors bench.steadyState: mean per-iteration time after a
// warm-up of a quarter of the iterations.
func steadyState(times []realm.Time) (realm.Time, error) {
	skip := len(times) / 4
	if skip < 1 {
		skip = 1
	}
	if len(times)-skip < 2 {
		return 0, fmt.Errorf("need at least %d iterations for a steady state, got %d", skip+2, len(times))
	}
	return (times[len(times)-1] - times[skip]) / realm.Time(len(times)-1-skip), nil
}

func newExec(o runOpts, nodes int) (realm.Exec, error) {
	x, err := bench.NewExec(o.backend, nodes)
	if err != nil {
		return nil, err
	}
	if m, ok := x.(*native.Machine); ok && o.rec != nil {
		m.SetTimeRecorder(o.rec)
	}
	return x, nil
}

func (o runOpts) mode() ir.ExecMode {
	if o.real {
		return ir.ExecReal
	}
	return ir.ExecModeled
}

// runCR is bench.MeasureCR taken apart: compile, certify the aggregation if
// asked, build the backend, run the SPMD engine — one span per call, and
// every counter the engine exports handed back.
func runCR(tr *tracer, prog *ir.Program, loop *ir.Loop, nodes int, tune bench.Tuning, o runOpts) (*runOut, error) {
	out := &runOut{}
	done := tr.span("cr.compile")
	if o.agg {
		done()
		done = tr.span("cr.agg_compile")
	}
	plan, err := cr.Compile(prog, loop, cr.Options{NumShards: nodes, Sync: o.sync, Agg: o.agg})
	done()
	if err != nil {
		return nil, err
	}
	out.plan = plan
	if o.agg {
		done := tr.span("verify.check_agg")
		rep, err := verify.CheckAgg(plan)
		done()
		if err != nil {
			return nil, err
		}
		if !rep.OK() {
			return nil, fmt.Errorf("CheckAgg: %d findings, first: %v", len(rep.Findings), rep.Findings[0])
		}
		out.aggRep = rep
	}
	x, err := newExec(o, nodes)
	if err != nil {
		return nil, err
	}
	eng := spmd.New(x, prog, o.mode(), map[*ir.Loop]*cr.Compiled{loop: plan})
	if o.faults != nil {
		fx, ok := x.(realm.FaultExec)
		if !ok {
			return nil, &realm.UnsupportedError{Backend: x.Backend(), Op: "fault injection"}
		}
		if err := fx.InjectFaults(*o.faults); err != nil {
			return nil, err
		}
		eng.Recov = spmd.DefaultRecovery()
	}
	eng.Over.ShardLaunchBase = tune.ShardLaunchBase
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.Window
	eng.Over.Noise = tune.Noise
	eng.NoTrace = o.noTrace
	eng.NoShare = o.noShare
	var res *spmd.Result
	done = tr.span(spmdSpan(o))
	t0 := time.Now()
	if tr != nil {
		out.allocMB = allocMB(func() { res, err = eng.Run() })
	} else {
		res, err = eng.Run()
	}
	out.wall = time.Since(t0)
	done()
	if err != nil {
		return nil, err
	}
	out.strace = eng.TraceStats()
	out.stats = res.Stats
	out.elapsed = res.Elapsed
	out.faults = res.Faults
	out.iterTimes = res.IterTimes[loop]
	if m, ok := x.(*native.Machine); ok {
		out.sched = m.SchedStats()
	}
	if res.Faults != nil && res.Faults.Unrecovered {
		return nil, fmt.Errorf("unrecovered: %s", res.Faults.Reason)
	}
	if o.real {
		out.sum = checksum(res.Stores, res.Env)
	}
	out.perIter, err = steadyState(out.iterTimes)
	return out, err
}

// spmdSpan names the span of an SPMD engine run after the path it takes, so
// the non-default paths get their own per-layer rows.
func spmdSpan(o runOpts) string {
	switch {
	case o.backend == bench.BackendNative:
		return "native.run"
	case o.real:
		return "spmd.real_run"
	case o.faults != nil:
		return "spmd.recover_run"
	case o.agg:
		return "spmd.agg_run"
	case o.sync == cr.BarrierSync:
		return "spmd.barrier_run"
	case o.noTrace:
		return "spmd.notrace_run"
	case o.noShare:
		return "spmd.noshare_run"
	}
	return "spmd.run"
}

// runImplicit is bench.MeasureImplicit taken apart the same way.
func runImplicit(tr *tracer, prog *ir.Program, loop *ir.Loop, nodes int, tune bench.Tuning, o runOpts) (*runOut, error) {
	out := &runOut{}
	x, err := newExec(o, nodes)
	if err != nil {
		return nil, err
	}
	eng := rt.New(x, prog, o.mode())
	eng.Over.LaunchBase = tune.ImplicitLaunchBase
	eng.Over.LaunchPerSub = tune.ImplicitLaunchPerSub
	eng.Over.KernelCores = tune.KernelCores
	eng.Over.Window = tune.ImplicitWindow
	eng.Over.Noise = tune.Noise
	eng.NoTrace = o.noTrace
	name := "rt.run"
	switch {
	case o.backend == bench.BackendNative:
		name = "native.implicit_run"
	case o.noTrace:
		name = "rt.notrace_run"
	}
	done := tr.span(name)
	t0 := time.Now()
	res, err := eng.Run()
	out.wall = time.Since(t0)
	done()
	if err != nil {
		return nil, err
	}
	out.rtrace = eng.TraceStats()
	out.stats = res.Stats
	out.elapsed = res.Elapsed
	out.iterTimes = res.IterTimes[loop]
	if m, ok := x.(*native.Machine); ok {
		out.sched = m.SchedStats()
	}
	if o.real {
		out.sum = checksum(res.Stores, res.Env)
	}
	out.perIter, err = steadyState(out.iterTimes)
	return out, err
}

// allocMB runs fn and returns the megabytes it allocated (TotalAlloc is a
// monotone byte counter, so the difference is exact for a single goroutine).
func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}
