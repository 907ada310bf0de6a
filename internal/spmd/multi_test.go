package spmd

import (
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
)

// TestTwoReplicatedLoops checks that control replication composes across
// program structure (§2.2: "it need not be applied only at the top level,
// and can in fact be applied independently to different parts of a
// program"): two separate main loops in one program, each compiled and
// executed as its own set of shards, with sequential setup in between.
func TestTwoReplicatedLoops(t *testing.T) {
	build := func() (*ir.Program, *region.Region, region.FieldID) {
		f := progtest.NewFigure2(48, 6, 2)
		// Append a second, independently replicated main loop over the same
		// regions and tasks, separated by a scalar statement.
		tf := f.Loop.Body[0].(*ir.Launch)
		tg := f.Loop.Body[1].(*ir.Launch)
		second := &ir.Loop{Var: "u", Trip: 3, Body: []ir.Stmt{
			&ir.Launch{Task: tf.Task, Domain: tf.Domain, Args: tf.Args, Label: "loopF2"},
			&ir.Launch{Task: tg.Task, Domain: tg.Domain, Args: tg.Args, Label: "loopG2"},
		}}
		f.Prog.Add(&ir.SetScalar{Name: "mid", Expr: ir.ConstExpr(1)}, second)
		return f.Prog, f.A, f.Val
	}

	pSeq, rSeq, x := build()
	seq := ir.ExecSequential(pSeq)

	pCR, rCR, _ := build()
	plans, err := CompileAll(pCR, cr.Options{NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2 (one per loop)", len(plans))
	}
	sim := realm.MustNewSim(testConfig(3))
	res, err := New(sim, pCR, ir.ExecReal, plans).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[rCR].EqualOn(seq.Stores[rSeq], x, rSeq.IndexSpace()) {
		t.Fatal("two-loop program diverged from sequential semantics")
	}
	if len(res.IterTimes) != 2 {
		t.Errorf("iteration times recorded for %d loops, want 2", len(res.IterTimes))
	}
}

// TestInitCopiesExecute exercises the hoisted loop-invariant copy path of
// the executor: a copy moved to the preheader must still deliver data
// before the shards start.
func TestInitCopiesExecute(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 2)
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan := plans[f.Loop]
	// Manually hoist a duplicate of the loop's PB->QB copy to the preheader
	// (semantically redundant: it copies the same data the initialization
	// already placed, exactly what a genuinely invariant copy would do).
	var cp *cr.CopyOp
	for _, op := range plan.Body {
		if op.Copy != nil {
			dup := *op.Copy
			dup.ID = 999
			cp = &dup
		}
	}
	if cp == nil {
		t.Fatal("no copy in plan")
	}
	plan.InitCopies = append(plan.InitCopies, cp)

	seqF := progtest.NewFigure2(48, 8, 2)
	seq := ir.ExecSequential(seqF.Prog)

	sim := realm.MustNewSim(testConfig(4))
	res, err := New(sim, f.Prog, ir.ExecReal, plans).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[f.A].EqualOn(seq.Stores[seqF.A], f.Val, f.A.IndexSpace()) {
		t.Fatal("run with init copy diverged")
	}
}

// TestShardsSpreadWhenFewerThanNodes checks shard-to-node placement when
// the domain (and hence shard count) is smaller than the machine.
func TestShardsSpreadWhenFewerThanNodes(t *testing.T) {
	f := progtest.NewFigure2(24, 4, 2)
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := &launchCounter{Exec: realm.MustNewSim(testConfig(8)), perNode: make([]int, 8)} // 8 nodes, 4 shards
	res, err := New(x, f.Prog, ir.ExecReal, plans).Run()
	if err != nil {
		t.Fatal(err)
	}
	seqF := progtest.NewFigure2(24, 4, 2)
	seq := ir.ExecSequential(seqF.Prog)
	if !res.Stores[f.A].EqualOn(seq.Stores[seqF.A], f.Val, f.A.IndexSpace()) {
		t.Fatal("spread-shard run diverged")
	}
	// Shards must land on distinct nodes (0,2,4,6 under block spreading).
	var busy []int
	for i, n := range x.perNode {
		if n > 0 {
			busy = append(busy, i)
		}
	}
	if fmt.Sprint(busy) != "[0 2 4 6]" {
		t.Errorf("nodes that ran launches = %v, want [0 2 4 6]", busy)
	}
}

// launchCounter is a realm.Exec that counts the launches issued to each
// node and forwards everything to the machine it wraps.
type launchCounter struct {
	realm.Exec
	perNode []int
}

func (c *launchCounter) LaunchOn(node int, pre realm.Event, dur realm.Time, body func()) realm.Event {
	c.perNode[node]++
	return c.Exec.LaunchOn(node, pre, dur, body)
}

// TestNoiseDeterminism: noise-perturbed runs are still exactly
// reproducible.
func TestNoiseDeterminism(t *testing.T) {
	run := func() realm.Time {
		f := progtest.NewFigure2(48, 8, 5)
		plans, err := CompileAll(f.Prog, cr.Options{NumShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(testConfig(4))
		eng := New(sim, f.Prog, ir.ExecModeled, plans)
		eng.Over.Noise = realm.SpikeNoise(0.9, 1.0, 7)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	clean := func() realm.Time {
		f := progtest.NewFigure2(48, 8, 5)
		plans, _ := CompileAll(f.Prog, cr.Options{NumShards: 4})
		sim := realm.MustNewSim(testConfig(4))
		res, err := New(sim, f.Prog, ir.ExecModeled, plans).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("noisy runs diverged: %v vs %v", a, b)
	}
	if a <= clean() {
		t.Error("noise should slow the run down")
	}
}
