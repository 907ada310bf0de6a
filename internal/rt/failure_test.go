package rt_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// TestKernelPanicSurfacesAsError mirrors the spmd test for the implicit
// runtime: a privilege violation inside a kernel becomes an error.
func TestKernelPanicSurfacesAsError(t *testing.T) {
	f := progtest.NewFigure2(24, 4, 1)
	tf := f.Loop.Body[0].(*ir.Launch)
	tf.Task.Kernel = func(tc *ir.TaskCtx) {
		tc.Args[1].Set(f.Val, tc.Args[1].Region.IndexSpace().Bounds().Lo, 1)
	}
	_, err := bench.RunImplicit(f.Prog, bench.Config{Nodes: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected kernel panic to surface as error, got %v", err)
	}
}

// TestMidLoopKernelPanicSurfacesAsError: a kernel that fails only on a
// later iteration still comes back as an error.
func TestMidLoopKernelPanicSurfacesAsError(t *testing.T) {
	f := progtest.NewFigure2(24, 4, 4)
	tf := f.Loop.Body[0].(*ir.Launch)
	good := tf.Task.Kernel
	calls := 0
	tf.Task.Kernel = func(tc *ir.TaskCtx) {
		calls++
		if calls > 6 { // 4 colors per iteration: fail during iteration 1
			panic("mid-loop kernel bug")
		}
		good(tc)
	}
	_, err := bench.RunImplicit(f.Prog, bench.Config{Nodes: 2})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected mid-loop kernel panic to surface as error, got %v", err)
	}
	if calls <= 6 {
		t.Fatalf("kernel ran %d times; the panic never fired", calls)
	}
}

// TestInjectedCrashSurfacesAsDeadlock: the implicit runtime has no
// recovery, so a node crash that swallows a task's completion leaves the
// control thread blocked — and that must surface as a structured deadlock
// error naming the blocked thread, not a panic or a hang.
func TestInjectedCrashSurfacesAsDeadlock(t *testing.T) {
	// Node 2 dies at its 5th launch, part way into the run.
	cfg := bench.Config{Nodes: 4, MeasureOpts: bench.MeasureOpts{
		Faults: &realm.FaultPlan{LaunchCrashes: []realm.LaunchCrash{{Node: 2, AtLaunch: 5}}}}}
	_, err := bench.RunImplicit(figure2(48, 8, 4)(), cfg)
	var derr *realm.DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want *realm.DeadlockError from a mid-run crash, got %v", err)
	}
	if len(derr.Blocked) == 0 || derr.Blocked[0].Name != "control" {
		t.Errorf("deadlock report should name the blocked control thread: %+v", derr.Blocked)
	}
}
