package ir

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/region"
)

// SeqResult holds the outcome of a sequential reference execution: the
// final store for each root region and the final scalar environment.
type SeqResult struct {
	Stores map[*region.Region]*region.Store
	Env    MapEnv
}

// ExecSequential interprets the program with sequential semantics on real
// data — the golden reference every parallel execution must match bitwise.
//
// Reduction semantics are defined here once and mirrored by every engine:
// within an index launch, each task instance folds its contributions into a
// private identity-initialized buffer (in kernel order), and the buffers
// are applied to the destination region in ascending color order. This is
// exactly the reduction-instance discipline of §4.3, so the distributed
// executions reproduce it bit for bit.
func ExecSequential(p *Program) *SeqResult {
	res := &SeqResult{Stores: p.NewStores(), Env: MapEnv{}}
	for k, v := range p.Scalars {
		res.Env[k] = v
	}
	execSeqStmts(res, &RootArgs{Stores: res.Stores}, p.Stmts)
	return res
}

func execSeqStmts(res *SeqResult, args *RootArgs, stmts []Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Fill:
			FillRegion(res.Stores[s.Target.Root()], s.Target, s.Field, func(geometry.Point) float64 { return s.Value })
		case *FillFunc:
			FillRegion(res.Stores[s.Target.Root()], s.Target, s.Field, s.Fn)
		case *SetScalar:
			res.Env[s.Name] = s.Expr(res.Env)
		case *Loop:
			for t := 0; t < s.Trip; t++ {
				res.Env[s.Var] = float64(t)
				execSeqStmts(res, args, s.Body)
			}
		case *Launch:
			args.execLaunch(res.Env, s)
		default:
			panic(fmt.Sprintf("ir: unknown statement %T", s))
		}
	}
}

// FillRegion assigns fn(p) to field f at every point p of target, in
// target's Each order, row by row. It is how every executor runs Fill and
// FillFunc statements against a root store.
func FillRegion(st *region.Store, target *region.Region, f region.FieldID, fn func(geometry.Point) float64) {
	st.Rows(f, target.IndexSpace(), func(p geometry.Point, row []float64) bool {
		last := p.Dim - 1
		for i := range row {
			row[i] = fn(p)
			p.C[last]++
		}
		return true
	})
}

// ExecLaunchSeq executes one index launch with the canonical sequential
// semantics against the given root-region stores and environment, updating
// the environment with any scalar reduction. Engines use it for setup
// launches outside replicated loops.
//
// Reduction semantics: every task folds its contributions into private
// identity-initialized buffers (one per reduce argument); after all tasks
// have run, the buffers are applied argument-major — for each reduce
// argument in parameter order, in ascending task-color order. This is the
// canonical order both distributed executions reproduce: the implicit
// runtime chains its reduction applications across arguments, and under
// control replication the compiler emits reduction copies per argument in
// parameter order with per-destination chains in source-color order. (With
// only one or two contributors per element any order agrees bitwise; four-
// way shared mesh corners are where the order becomes observable.)
func ExecLaunchSeq(stores map[*region.Region]*region.Store, env MapEnv, l *Launch) {
	(&RootArgs{Stores: stores}).execLaunch(env, l)
}

func (r *RootArgs) execLaunch(env MapEnv, l *Launch) {
	scalars := make([]float64, len(l.ScalarArgs))
	for i, e := range l.ScalarArgs {
		scalars[i] = e(env)
	}
	var folded float64
	if l.Reduce != nil {
		folded = l.Reduce.Op.Identity()
	}
	// bufs[idx] holds the reduce buffers of task idx, by argument.
	bufs := make([][]*region.Store, len(l.Domain))
	for idx := range l.Domain {
		var ctx *TaskCtx
		ctx, bufs[idx] = r.Ctx(l, idx, scalars)
		if l.Task.Kernel != nil {
			l.Task.Kernel(ctx)
		}
		if l.Reduce != nil {
			folded = l.Reduce.Op.Fold(folded, ctx.Return)
		}
	}
	for ai, param := range l.Task.Params {
		if param.Priv != PrivReduce {
			continue
		}
		for idx, c := range l.Domain {
			sub := l.Args[ai].At(c)
			global := r.Stores[sub.Root()]
			for _, f := range param.Fields {
				global.ReduceFieldFrom(bufs[idx][ai], f, param.Op, sub.IndexSpace())
			}
		}
	}
	// Every buffer is folded: hand them back for the next run to re-fill.
	for idx, inst := range r.sites[l].insts {
		inst.spare = bufs[idx]
	}
	if l.Reduce != nil {
		env[l.Reduce.Into] = folded
	}
}

// RootArgs builds the Real-mode contexts of task instances that run against
// root stores — the sequential interpreter's and the implicit runtime's —
// resolving each instance's arguments once: a launch site issues the same
// instances every iteration, so what depends only on the instance (each
// argument's footprint in its root store, the layout of each reduce
// buffer, the footprints kernels resolve over several arguments) is kept.
// The sequential interpreter hands an instance's reduce buffers back once
// it has folded them, and its next run re-fills them; the implicit
// runtime, whose fold is an asynchronous copy, hands none back, so each of
// its runs allocates fresh ones. A site is the launch
// statement under the partitions its arguments name: a scalar statement may
// swap one mid-loop, and the repartitioned launch resolves fresh instances.
// Stores must not change once Ctx has been called. Ctx is not safe for
// concurrent use; the contexts it returns may run concurrently.
type RootArgs struct {
	Stores map[*region.Region]*region.Store
	sites  map[*Launch]*rootSite
}

type rootSite struct {
	parts []*region.Partition // the launch's argument partitions when resolved
	insts []*rootInstance     // by task index
}

type rootInstance struct {
	// args holds the resolved arguments; a reduce argument's Store is nil
	// here and a buffer over layouts[ai] in each context.
	args       []PhysArg
	layouts    []*region.Layout
	footprints FootprintCache
	spare      []*region.Store // reduce buffers handed back once folded, by argument
}

// Ctx returns a context for task idx of launch l: read and read-write
// arguments wrap their root store, and every reduce argument gets an
// identity-initialized buffer over its subregion, holding only the
// parameter's fields, returned in bufs by argument (nil when the task has
// no reduce argument). The buffers are the ones handed back to the
// instance after its last fold, if any, and fresh otherwise.
func (r *RootArgs) Ctx(l *Launch, idx int, scalars []float64) (ctx *TaskCtx, bufs []*region.Store) {
	if r.sites == nil {
		r.sites = make(map[*Launch]*rootSite)
	}
	site := r.sites[l]
	same := site != nil
	for ai := 0; same && ai < len(l.Args); ai++ {
		same = l.Args[ai].Part == site.parts[ai]
	}
	if !same {
		site = &rootSite{parts: make([]*region.Partition, len(l.Args)), insts: make([]*rootInstance, len(l.Domain))}
		for ai, a := range l.Args {
			site.parts[ai] = a.Part
		}
		r.sites[l] = site
	}
	inst := site.insts[idx]
	if inst == nil {
		inst = &rootInstance{args: make([]PhysArg, len(l.Args)), layouts: make([]*region.Layout, len(l.Args))}
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			sub := a.At(l.Domain[idx])
			if param.Priv == PrivReduce {
				inst.layouts[ai] = region.NewLayout(sub.IndexSpace())
				inst.args[ai] = newPhysArg(sub, nil, inst.layouts[ai], param)
			} else {
				inst.args[ai] = NewPhysArg(sub, r.Stores[sub.Root()], param)
			}
		}
		site.insts[idx] = inst
	}
	ctx = &TaskCtx{Color: l.Domain[idx], Scalars: scalars, Args: inst.args, Footprints: &inst.footprints}
	spare := inst.spare
	inst.spare = nil
	for ai, layout := range inst.layouts {
		if layout == nil {
			continue
		}
		if bufs == nil {
			if bufs = spare; bufs == nil {
				bufs = make([]*region.Store, len(l.Args))
			}
			ctx.Args = append([]PhysArg(nil), inst.args...)
		}
		param := l.Task.Params[ai]
		buf := bufs[ai]
		if buf == nil {
			buf = layout.NewStoreOf(r.Stores[inst.args[ai].Region.Root()].FieldSpace(), param.Fields)
		}
		for _, f := range param.Fields {
			buf.Fill(f, param.Op.Identity())
		}
		bufs[ai] = buf
		ctx.Args[ai].Store = buf
	}
	return ctx, bufs
}
