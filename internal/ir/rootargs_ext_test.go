package ir_test

import (
	"slices"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/region"
)

// TestReduceBuffersHoldOnlyReducedFields: the reduction buffers the
// sequential interpreter and the implicit runtime fold through
// (RootArgs.Ctx) hold only the fields the reducing parameter declares, on
// pennant, whose point field space has more fields than any parameter
// reduces.
func TestReduceBuffersHoldOnlyReducedFields(t *testing.T) {
	prog := pennant.Build(pennant.Small(4)).Prog
	args := &ir.RootArgs{Stores: prog.NewStores()}
	bufs := 0
	for _, s := range prog.Stmts {
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		for _, st := range loop.Body {
			l, ok := st.(*ir.Launch)
			if !ok {
				continue
			}
			for idx := range l.Domain {
				_, got := args.Ctx(l, idx, make([]float64, len(l.ScalarArgs)))
				for ai, buf := range got {
					if buf == nil {
						continue
					}
					bufs++
					want := slices.Clone(l.Task.Params[ai].Fields)
					slices.Sort(want)
					if held := buf.Fields(); !slices.Equal(held, want) || len(held) == buf.FieldSpace().NumFields() {
						t.Errorf("%s argument %d: buffer holds %v of %d fields, want %v", l.Task.Name, ai, held, buf.FieldSpace().NumFields(), want)
					}
				}
			}
		}
	}
	if bufs == 0 {
		t.Fatal("pennant's loop made no reduction buffer")
	}
}

// interpret runs p as ExecSequential does, with each launch run by launch
// and afterTrip called at the end of every loop trip.
func interpret(p *ir.Program, launch func(ir.MapEnv, *ir.Launch, map[*region.Region]*region.Store), afterTrip func(trip int)) *ir.SeqResult {
	res := &ir.SeqResult{Stores: p.NewStores(), Env: ir.MapEnv{}}
	for k, v := range p.Scalars {
		res.Env[k] = v
	}
	var exec func([]ir.Stmt)
	exec = func(stmts []ir.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ir.Fill:
				ir.FillRegion(res.Stores[s.Target.Root()], s.Target, s.Field, func(geometry.Point) float64 { return s.Value })
			case *ir.FillFunc:
				ir.FillRegion(res.Stores[s.Target.Root()], s.Target, s.Field, s.Fn)
			case *ir.SetScalar:
				res.Env[s.Name] = s.Expr(res.Env)
			case *ir.Loop:
				for trip := 0; trip < s.Trip; trip++ {
					res.Env[s.Var] = float64(trip)
					exec(s.Body)
					afterTrip(trip)
				}
			case *ir.Launch:
				launch(res.Env, s, res.Stores)
			}
		}
	}
	exec(p.Stmts)
	return res
}

// TestSequentialReusesReduceBuffers: the sequential interpreter folds every
// reduce buffer before a launch returns, so it hands the buffers back to
// their instances and re-fills them: on pennant, no launch allocates a
// reduce buffer after the loop's first trip, and the stores are bitwise
// those of a run whose every launch gets fresh buffers (ExecLaunchSeq, as
// the implicit runtime does).
func TestSequentialReusesReduceBuffers(t *testing.T) {
	prog := pennant.Build(pennant.Small(4)).Prog
	var args *ir.RootArgs
	var first map[*region.Store]bool
	recycled := interpret(prog, func(env ir.MapEnv, l *ir.Launch, stores map[*region.Region]*region.Store) {
		if args == nil {
			args = &ir.RootArgs{Stores: stores}
		}
		args.ExecLaunch(env, l)
	}, func(trip int) {
		spare := args.SpareBuffers()
		if trip == 0 {
			first = map[*region.Store]bool{}
			for _, buf := range spare {
				first[buf] = true
			}
			return
		}
		for _, buf := range spare {
			if !first[buf] {
				t.Fatalf("trip %d: a reduce buffer allocated after the first trip", trip)
			}
		}
		if len(spare) != len(first) {
			t.Fatalf("trip %d: %d reduce buffers handed back, %d after the first trip", trip, len(spare), len(first))
		}
	})
	if len(first) == 0 {
		t.Fatal("pennant's loop handed back no reduce buffer")
	}
	fresh := interpret(prog, func(env ir.MapEnv, l *ir.Launch, stores map[*region.Region]*region.Store) {
		ir.ExecLaunchSeq(stores, env, l)
	}, func(int) {})
	if err := progtest.Diff(fresh, recycled); err != nil {
		t.Fatalf("with recycled buffers: %v", err)
	}
	if err := progtest.Diff(fresh, ir.ExecSequential(prog)); err != nil {
		t.Fatalf("ExecSequential: %v", err)
	}
}
