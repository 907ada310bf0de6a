package spmd_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/spmd"
)

// setupProgram builds a program whose top level runs a setup launch
// outside any loop — doubling x over R's 4 blocks and sum-reducing it into
// scalar "s" — and then the given number of 2-iteration loops, each adding
// s to x and sum-reducing x into "total".
func setupProgram(loops int) (*ir.Program, []*ir.Loop) {
	p := ir.NewProgram("setup")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	update := func(name string, scalars int, by func(tc *ir.TaskCtx, v float64) float64) *ir.TaskDecl {
		return &ir.TaskDecl{
			Name:       name,
			Params:     []ir.Param{{Name: "R", Priv: ir.PrivReadWrite, Fields: []region.FieldID{x}}},
			NumScalars: scalars,
			Kernel: func(tc *ir.TaskCtx) {
				arg := &tc.Args[0]
				arg.Each(func(pt geometry.Point) bool {
					v := by(tc, arg.Get(x, pt))
					arg.Set(x, pt, v)
					tc.Return += v
					return true
				})
			},
			CostPerElem: 10,
		}
	}
	double := update("double", 0, func(_ *ir.TaskCtx, v float64) float64 { return 2 * v })
	add := update("add", 1, func(tc *ir.TaskCtx, v float64) float64 { return v + tc.Scalars[0] })
	p.Add(
		&ir.FillFunc{Target: r, Field: x, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Launch{Task: double, Domain: ir.Colors1D(4), Args: []ir.RegionArg{{Part: pr}},
			Reduce: &ir.ScalarReduce{Into: "s", Op: region.ReduceSum}, Label: "setup"},
	)
	var out []*ir.Loop
	for i := 0; i < loops; i++ {
		loop := &ir.Loop{Var: "t", Trip: 2, Body: []ir.Stmt{
			&ir.Launch{Task: add, Domain: ir.Colors1D(4), Args: []ir.RegionArg{{Part: pr}},
				ScalarArgs: []ir.ScalarExpr{func(e ir.Env) float64 { return e.Get("s") }},
				Reduce:     &ir.ScalarReduce{Into: "total", Op: region.ReduceSum}},
		}}
		p.Add(loop)
		out = append(out, loop)
	}
	return p, out
}

// TestSetupPaths: the statements the SPMD executor runs outside its
// replicated loops — a setup launch with a scalar reduction on the control
// thread, and a loop the plan map leaves out, run sequentially — leave the
// stores and scalars the sequential interpreter does, in Real mode.
func TestSetupPaths(t *testing.T) {
	rows := []struct {
		name  string
		loops int
		run   func(t *testing.T, prog *ir.Program, loops []*ir.Loop) []*ir.SeqResult
	}{
		{"setup launch", 1, func(t *testing.T, prog *ir.Program, _ []*ir.Loop) []*ir.SeqResult {
			var out []*ir.SeqResult
			for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
				cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Backend: backend}, Nodes: 2}
				out = append(out, must(t)(bench.RunCR(prog, cfg)).SeqResult)
			}
			return out
		}},
		{"unplanned loop", 2, func(t *testing.T, prog *ir.Program, loops []*ir.Loop) []*ir.SeqResult {
			plan, err := cr.Compile(prog, loops[1], cr.Options{NumShards: 2})
			if err != nil {
				t.Fatal(err)
			}
			eng := spmd.New(realm.MustNewSim(realm.DefaultConfig(2)), prog, ir.ExecReal, map[*ir.Loop]*cr.Compiled{loops[1]: plan})
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			return []*ir.SeqResult{{Stores: res.Stores, Env: res.Env}}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref, _ := setupProgram(row.loops)
			want := ir.ExecSequential(ref)
			prog, loops := setupProgram(row.loops)
			for _, got := range row.run(t, prog, loops) {
				if err := progtest.Diff(want, got); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
