package harness

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/spmd"
)

// backendApps builds each evaluation application at a correctness-testing
// size. Programs are rebuilt per run (region identities are per-instance),
// so the builder is a function, not a value.
var backendApps = []struct {
	name  string
	build func(nodes int) *ir.Program
}{
	{"stencil", func(n int) *ir.Program { return stencil.Build(stencil.Small(n)).Prog }},
	{"miniaero", func(n int) *ir.Program { return miniaero.Build(miniaero.Small(n)).Prog }},
	{"pennant", func(n int) *ir.Program { return pennant.Build(pennant.Small(n)).Prog }},
	{"circuit", func(n int) *ir.Program { return circuit.Build(circuit.Small(n)).Prog }},
}

// must returns the record of a run the test expects to succeed.
func must(t *testing.T) func(*bench.Result, error) *bench.Result {
	return func(r *bench.Result, err error) *bench.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// onBackend is a Real-mode row on a machine of the given backend.
func onBackend(backend string, nodes int, sync cr.SyncMode) bench.Config {
	return bench.Config{MeasureOpts: bench.MeasureOpts{Backend: backend}, Nodes: nodes, Sync: sync}
}

// TestNativeMatchesDES is the cross-backend equivalence matrix: every
// evaluation application, under both sync lowerings and every tracing
// configuration, must produce Real-mode stores on the native backend that
// are bitwise equal to the DES's. The native schedule is a different
// interleaving entirely (real cores race); equality holds because every
// float-affecting order is fixed by explicit dependences, which is exactly
// what this test pins.
func TestNativeMatchesDES(t *testing.T) {
	const nodes = 4
	syncs := []struct {
		name string
		mode cr.SyncMode
	}{{"p2p", cr.PointToPoint}, {"barrier", cr.BarrierSync}}
	flags := []struct {
		name             string
		noTrace, noShare bool
	}{
		{"trace+share", false, false},
		{"trace+noshare", false, true},
		{"notrace", true, false},
		{"notrace+noshare", true, true},
	}
	for _, app := range backendApps {
		// One DES reference per (app, sync): tracing never changes results
		// (pinned separately below), so the reference uses the defaults.
		for _, sy := range syncs {
			ref := must(t)(bench.RunCR(app.build(nodes), onBackend(bench.BackendDES, nodes, sy.mode)))
			for _, fl := range flags {
				label := fmt.Sprintf("%s/%s/%s", app.name, sy.name, fl.name)
				t.Run(label, func(t *testing.T) {
					cfg := onBackend(bench.BackendNative, nodes, sy.mode)
					cfg.NoTrace, cfg.NoShare = fl.noTrace, fl.noShare
					res := must(t)(bench.RunCR(app.build(nodes), cfg))
					if err := progtest.Diff(ref.SeqResult, res.SeqResult); err != nil {
						t.Errorf("%s: %v", label, err)
					}
					if wall := res.Stats.WallNanos; wall <= 0 {
						t.Errorf("%s: native Stats.WallNanos = %d, want > 0", label, wall)
					}
				})
			}
		}
	}
}

// TestNativeImplicitMatchesDES runs the implicit (non-CR) runtime on both
// backends: the rt engine's Real-mode results must also be backend
// independent.
func TestNativeImplicitMatchesDES(t *testing.T) {
	const nodes = 4
	run := func(backend string) *ir.SeqResult {
		return must(t)(bench.RunImplicit(stencil.Build(stencil.Small(nodes)).Prog, onBackend(backend, nodes, 0))).SeqResult
	}
	if err := progtest.Diff(run(bench.BackendDES), run(bench.BackendNative)); err != nil {
		t.Error(err)
	}
}

// scalarFeedback builds a loop whose sum reduction "s" feeds the next
// launch's scalar argument and, after the loop, the result environment:
// every iteration forces the future on the reader (rt's control thread,
// every spmd shard), and the fractional contributions make the fold order
// visible in the bits.
func scalarFeedback() *ir.Program {
	p := ir.NewProgram("scalar-feedback")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 47)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 8)
	fold := &ir.TaskDecl{
		Name:   "fold",
		Params: []ir.Param{{Priv: ir.PrivRead, Fields: []region.FieldID{x}}},
		Kernel: func(tc *ir.TaskCtx) {
			a := &tc.Args[0]
			a.Each(func(pt geometry.Point) bool {
				tc.Return += a.Get(x, pt) * 0.1
				return true
			})
		},
		CostPerElem: 50,
	}
	scale := &ir.TaskDecl{
		Name:       "scale",
		Params:     []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{x}}},
		NumScalars: 1,
		Kernel: func(tc *ir.TaskCtx) {
			a := &tc.Args[0]
			a.Each(func(pt geometry.Point) bool {
				a.Set(x, pt, a.Get(x, pt)*1.01+tc.Scalars[0]*1e-3)
				return true
			})
		},
		CostPerElem: 50,
	}
	p.Scalars["s"] = 0.5
	p.Add(
		&ir.FillFunc{Target: r, Field: x, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) / 3 }},
		&ir.Loop{Var: "t", Trip: 4, Body: []ir.Stmt{
			&ir.Launch{Task: scale, Domain: ir.Colors1D(8), Args: []ir.RegionArg{{Part: pr}},
				ScalarArgs: []ir.ScalarExpr{ir.VarExpr("s")}},
			&ir.Launch{Task: fold, Domain: ir.Colors1D(8), Args: []ir.RegionArg{{Part: pr}},
				Reduce: &ir.ScalarReduce{Into: "s", Op: region.ReduceSum}},
		}},
	)
	return p
}

// TestFuturesEnvMatchesSequential: both engines read scalar reductions
// through realm.Futures; on both backends their final environment and
// stores are bitwise equal to sequential semantics.
func TestFuturesEnvMatchesSequential(t *testing.T) {
	const nodes = 4
	want := ir.ExecSequential(scalarFeedback())
	for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
		cfg := onBackend(backend, nodes, cr.PointToPoint)
		if err := progtest.Diff(want, must(t)(bench.RunImplicit(scalarFeedback(), cfg)).SeqResult); err != nil {
			t.Errorf("rt/%s: %v", backend, err)
		}
		if err := progtest.Diff(want, must(t)(bench.RunCR(scalarFeedback(), cfg)).SeqResult); err != nil {
			t.Errorf("spmd/%s: %v", backend, err)
		}
	}
}

// crashing is a native row with crashes injected and checkpoint/restart
// recovery on.
func crashing(nodes int, sync cr.SyncMode, fp *realm.FaultPlan) bench.Config {
	cfg := onBackend(bench.BackendNative, nodes, sync)
	cfg.Faults, cfg.Recov = fp, spmd.Recovery{MaxRetries: 6, Backoff: realm.Microseconds(200)}
	return cfg
}

// TestNativeCrashRecoveryMatchesFaultFree is the keystone of native fault
// tolerance: every evaluation application, under both sync lowerings, is
// run on the native backend with a seeded crash injected, recovered
// through real-goroutine failover — and must produce Real-mode stores
// bitwise equal to the fault-free native run (which is itself pinned
// bitwise-equal to the DES by TestNativeMatchesDES).
func TestNativeCrashRecoveryMatchesFaultFree(t *testing.T) {
	const nodes = 4
	syncs := []struct {
		name string
		mode cr.SyncMode
	}{{"p2p", cr.PointToPoint}, {"barrier", cr.BarrierSync}}
	for _, app := range backendApps {
		for _, sy := range syncs {
			label := fmt.Sprintf("%s/%s", app.name, sy.name)
			t.Run(label, func(t *testing.T) {
				ref := must(t)(bench.RunCR(app.build(nodes), onBackend(bench.BackendNative, nodes, sy.mode)))
				// Seed 4 at rate 500 (a 0.05 crash probability per launch)
				// lands at least one early crash in every app under both
				// lowerings; the per-node draw sequences are seeded, so the
				// crashes land at the same logical points on every run.
				res := must(t)(bench.RunCR(app.build(nodes), crashing(nodes, sy.mode, &realm.FaultPlan{Seed: 4, CrashRate: 500})))
				if res.Faults == nil || len(res.Faults.Crashes) == 0 || res.Faults.Restarts < 1 {
					t.Fatalf("%s: fault report = %+v, want at least one crash and one restart", label, res.Faults)
				}
				if res.Faults.Unrecovered {
					t.Fatalf("%s: run degraded: %+v", label, res.Faults)
				}
				for _, c := range res.Faults.Crashes {
					if c.Node == 0 {
						t.Fatalf("%s: node 0 crashed without CrashNode0", label)
					}
				}
				if err := progtest.Diff(ref.SeqResult, res.SeqResult); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			})
		}
	}
}

// TestNativeLaunchCrashRecovery runs a logical-point crash schedule —
// "node 2 dies at its 5th launch" — end to end on the native backend:
// the plan installs (virtual-time schedules are still rejected), the crash
// lands exactly once, recovery restores the run, and the stores come out
// bitwise equal to the fault-free native run.
func TestNativeLaunchCrashRecovery(t *testing.T) {
	const nodes = 4
	app := backendApps[0] // stencil
	ref := must(t)(bench.RunCR(app.build(nodes), onBackend(bench.BackendNative, nodes, cr.PointToPoint)))
	fp := &realm.FaultPlan{LaunchCrashes: []realm.LaunchCrash{{Node: 2, AtLaunch: 5}}}
	res := must(t)(bench.RunCR(app.build(nodes), crashing(nodes, cr.PointToPoint, fp)))
	if res.Faults == nil || len(res.Faults.Crashes) != 1 || res.Faults.Crashes[0].Node != 2 {
		t.Fatalf("fault report = %+v, want exactly the scheduled crash of node 2", res.Faults)
	}
	if res.Faults.Restarts < 1 || res.Faults.Unrecovered {
		t.Fatalf("fault report = %+v, want a clean recovery", res.Faults)
	}
	if err := progtest.Diff(ref.SeqResult, res.SeqResult); err != nil {
		t.Error(err)
	}
}

// TestMeasuredTimeCalibratesDES closes the model-reality loop: fit a
// MeasuredTime from a native stencil run, export and re-import its
// coefficients, install the policy on the DES, and check the re-modeled
// per-iteration time lands closer (in log error) to the measured wall time
// than the default Cray-XC model does. The native backend interprets its
// kernels, so the modeled constants are off by orders of magnitude — the
// fit must close most of that gap.
func TestMeasuredTimeCalibratesDES(t *testing.T) {
	// All three runs use the same program at the native benchmark size: the
	// calibration is only meaningful when the DES re-models the very
	// workload the samples came from (the harness's Measure deliberately
	// scales the grid per backend, which would compare different programs).
	const nodes = 2
	tune := bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
	run := func(opts bench.MeasureOpts) realm.Time {
		t.Helper()
		app := stencil.Build(stencil.Native(nodes))
		per, err := bench.MeasureCR(app.Prog, app.Loop, nodes, cr.PointToPoint, tune, opts)
		if err != nil {
			t.Fatal(err)
		}
		return per
	}
	fit := realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(nodes)})
	wall := run(bench.MeasureOpts{Backend: bench.BackendNative, Fit: fit})
	launches, copies := fit.Samples()
	if launches == 0 || copies == 0 {
		t.Fatalf("fit saw %d launches / %d copies, want both > 0", launches, copies)
	}
	data, err := fit.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := realm.ImportMeasuredTime(data, realm.ModeledTime{Cfg: realm.DefaultConfig(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	modeled := run(bench.MeasureOpts{})
	measured := run(bench.MeasureOpts{Policy: imported})
	logErr := func(got realm.Time) float64 {
		return math.Abs(math.Log(float64(got) / float64(wall)))
	}
	if logErr(measured) >= logErr(modeled) {
		t.Errorf("fitted policy did not move the DES toward reality: wall=%v modeled=%v measured=%v",
			wall, modeled, measured)
	}
	// Tolerance: the fitted re-run must land within a factor of 4 of the
	// measured wall time (the defaults are off by far more).
	if logErr(measured) > math.Log(4) {
		t.Errorf("fitted per-iter %v is more than 4x off the measured wall %v", measured, wall)
	}
}

// TestNativeMeasureGates pins the measurement-layer capability surface on
// native: the MPI baselines stay DES-only cost models (UnsupportedError),
// fault injection into the implicit runtime is rejected up front (it has
// no recovery — on the DES a crash is a cheap immediate DeadlockError, on
// native it would burn a watchdog window per sweep cell), and fault
// injection into regent-cr now measures successfully through recovery.
func TestNativeMeasureGates(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Measure("mpi", 2, 0, bench.MeasureOpts{Backend: bench.BackendNative})
	var ue *realm.UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("mpi on native: err = %v, want realm.UnsupportedError", err)
	}
	_, err = app.Measure("regent-nocr", 2, 0, bench.MeasureOpts{
		Backend: bench.BackendNative,
		Faults:  &realm.FaultPlan{Seed: 1, CrashRate: 0.5},
	})
	if !errors.As(err, &ue) {
		t.Fatalf("implicit faults on native: err = %v, want realm.UnsupportedError", err)
	}
	per, err := app.Measure("regent-cr", 2, 0, bench.MeasureOpts{
		Backend: bench.BackendNative,
		Faults:  &realm.FaultPlan{Seed: 1, CrashRate: 0.5},
	})
	if err != nil {
		t.Fatalf("regent-cr faults on native must measure through recovery: %v", err)
	}
	if per <= 0 {
		t.Fatalf("regent-cr faulty native per-iter = %v, want > 0 wall time", per)
	}
}

// TestNativeSweepFiltersSystems pins the harness-side behavior: a native
// sweep measures only the Regent systems and records real wall-clock.
func TestNativeSweepFiltersSystems(t *testing.T) {
	app, err := AppByName("stencil")
	if err != nil {
		t.Fatal(err)
	}
	app.Opts.Backend = bench.BackendNative
	app.Iters = 4
	series, err := RunFigure(app, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].System != "regent-cr" || series[1].System != "regent-nocr" {
		t.Fatalf("native systems = %+v, want regent-cr, regent-nocr", series)
	}
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != "" {
				t.Fatalf("%s: %s", s.System, p.Err)
			}
			if p.PerIter <= 0 {
				t.Errorf("%s: per-iter = %v, want > 0 wall time", s.System, p.PerIter)
			}
		}
	}
}
