package lang

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Kernel compilation: task bodies are compiled to closures over ir.TaskCtx.
// Accesses resolve their parameter and field bindings at compile time, and
// loop variables their slot, so execution is a plain tree walk with no name
// lookups: at kernel entry every access site's (parameter, field) is bound
// to an ir accessor, which is where the ir layer checks the declared
// privilege, once per task. Privilege checking happens here first, with
// source positions.

// kenv is the kernel's evaluation state.
type kenv struct {
	ctx        *ir.TaskCtx
	vars       []int64 // loop variables (point coordinates), by nesting depth
	readers    []ir.Reader
	writers    []ir.Writer
	reducers   []ir.Reducer
	result     float64
	resultInit bool
}

type kstmtFn func(*kenv)
type kexprFn func(*kenv) float64

// kaccess is one (argument, field) a kernel touches in one way.
type kaccess struct {
	arg int
	fid region.FieldID
	op  region.ReductionOp // reducers only
}

// kcomp is the state of one kernel's compilation: the accessors its access
// sites share and the deepest loop nest.
type kcomp struct {
	params                     map[string]paramInfo
	readers, writers, reducers []kaccess
	depth                      int
}

// slot returns the index of a in list, appending it if new.
func slot(list *[]kaccess, a kaccess) int {
	for i, have := range *list {
		if have == a {
			return i
		}
	}
	*list = append(*list, a)
	return len(*list) - 1
}

// compileKernel builds the task's executable body from its AST.
func (b *builder) compileKernel(tk *astTask, params map[string]paramInfo) (func(*ir.TaskCtx), error) {
	kc := &kcomp{params: params}
	body, err := kc.compileKStmts(tk.body, map[string]int{})
	if err != nil {
		return nil, err
	}
	return func(ctx *ir.TaskCtx) {
		env := &kenv{
			ctx:      ctx,
			vars:     make([]int64, kc.depth),
			readers:  make([]ir.Reader, len(kc.readers)),
			writers:  make([]ir.Writer, len(kc.writers)),
			reducers: make([]ir.Reducer, len(kc.reducers)),
		}
		for i, a := range kc.readers {
			env.readers[i] = ctx.Reader(a.fid, a.arg, 1)
		}
		for i, a := range kc.writers {
			env.writers[i] = ctx.Writer(a.fid, a.arg, 1)
		}
		for i, a := range kc.reducers {
			env.reducers[i] = ctx.Reducer(a.fid, a.op, a.arg, 1)
		}
		for _, fn := range body {
			fn(env)
		}
		if env.resultInit {
			ctx.Return = env.result
		}
	}, nil
}

// compileKStmts compiles a statement list; scope maps the loop variables in
// scope to their slot in kenv.vars.
func (kc *kcomp) compileKStmts(stmts []astKStmt, scope map[string]int) ([]kstmtFn, error) {
	var out []kstmtFn
	for _, s := range stmts {
		fn, err := kc.compileKStmt(s, scope)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (kc *kcomp) compileKStmt(s astKStmt, scope map[string]int) (kstmtFn, error) {
	switch s := s.(type) {
	case *astKFor:
		info, ok := kc.params[s.over]
		if !ok || info.isScalar {
			return nil, errAt(s.line, "for-loop must iterate a region parameter, %q is not one", s.over)
		}
		if _, shadows := scope[s.v]; shadows {
			return nil, errAt(s.line, "loop variable %q shadows an outer loop variable", s.v)
		}
		inner := map[string]int{s.v: len(scope)}
		for k, v := range scope {
			inner[k] = v
		}
		if len(inner) > kc.depth {
			kc.depth = len(inner)
		}
		body, err := kc.compileKStmts(s.body, inner)
		if err != nil {
			return nil, err
		}
		argIdx, v := info.argIdx, len(scope)
		return func(env *kenv) {
			env.ctx.Rows(argIdx, func(r ir.Row) {
				x := r.First.X()
				for i := 0; i < r.Len; i++ {
					env.vars[v] = x + int64(i)
					for _, fn := range body {
						fn(env)
					}
				}
			})
		}, nil
	case *astKResult:
		e, err := kc.compileExpr(s.expr, scope)
		if err != nil {
			return nil, err
		}
		op := map[string]region.ReductionOp{"+": region.ReduceSum, "min": region.ReduceMin, "max": region.ReduceMax}[s.op]
		return func(env *kenv) {
			v := e(env)
			if !env.resultInit {
				env.result = op.Identity()
				env.resultInit = true
			}
			env.result = op.Fold(env.result, v)
		}, nil
	case *astKAssign:
		info, ok := kc.params[s.dst.param]
		if !ok || info.isScalar {
			return nil, errAt(s.line, "unknown region parameter %q", s.dst.param)
		}
		idx, err := compileIndex(s.dst.idx, scope, s.line)
		if err != nil {
			return nil, err
		}
		e, err := kc.compileExpr(s.expr, scope)
		if err != nil {
			return nil, err
		}
		switch s.op {
		case "=":
			fid, ok := info.writable[s.dst.field]
			if !ok {
				return nil, errAt(s.line, "parameter %q has no write privilege on field %q", s.dst.param, s.dst.field)
			}
			w := slot(&kc.writers, kaccess{arg: info.argIdx, fid: fid})
			return func(env *kenv) {
				env.writers[w].Set(idx(env), e(env))
			}, nil
		case "+=":
			fid, ok := info.reduced[s.dst.field]
			if !ok {
				// Allow += as read-modify-write under full write privilege.
				if wid, okW := info.writable[s.dst.field]; okW {
					w := slot(&kc.writers, kaccess{arg: info.argIdx, fid: wid})
					return func(env *kenv) {
						p := idx(env)
						a := &env.writers[w]
						a.Set(p, a.Get(p)+e(env))
					}, nil
				}
				return nil, errAt(s.line, "parameter %q has no reduce or write privilege on field %q", s.dst.param, s.dst.field)
			}
			r := slot(&kc.reducers, kaccess{arg: info.argIdx, fid: fid, op: info.op})
			return func(env *kenv) {
				env.reducers[r].Fold(idx(env), e(env))
			}, nil
		}
	}
	return nil, errAt(0, "unsupported kernel statement")
}

func compileIndex(idx astIndex, scope map[string]int, line int) (func(*kenv) geometry.Point, error) {
	v, ok := scope[idx.v]
	if !ok {
		return nil, errAt(line, "index variable %q is not a loop variable in scope", idx.v)
	}
	off, mod := idx.off, idx.mod
	if mod > 0 {
		return func(env *kenv) geometry.Point {
			x := env.vars[v] + off
			return geometry.Pt1(((x % mod) + mod) % mod)
		}, nil
	}
	return func(env *kenv) geometry.Point {
		return geometry.Pt1(env.vars[v] + off)
	}, nil
}

func (kc *kcomp) compileExpr(e astExpr, scope map[string]int) (kexprFn, error) {
	switch e := e.(type) {
	case astNum:
		v := e.v
		return func(*kenv) float64 { return v }, nil
	case astRef:
		if v, ok := scope[e.name]; ok {
			return func(env *kenv) float64 { return float64(env.vars[v]) }, nil
		}
		if info, ok := kc.params[e.name]; ok && info.isScalar {
			i := info.scalarIdx
			return func(env *kenv) float64 { return env.ctx.Scalars[i] }, nil
		}
		return nil, errAt(e.line, "unknown name %q (not a loop variable or scalar parameter)", e.name)
	case astAcc:
		info, ok := kc.params[e.a.param]
		if !ok || info.isScalar {
			return nil, errAt(e.a.line, "unknown region parameter %q", e.a.param)
		}
		fid, ok := info.readable[e.a.field]
		if !ok {
			return nil, errAt(e.a.line, "parameter %q has no read privilege on field %q", e.a.param, e.a.field)
		}
		idx, err := compileIndex(e.a.idx, scope, e.a.line)
		if err != nil {
			return nil, err
		}
		r := slot(&kc.readers, kaccess{arg: info.argIdx, fid: fid})
		return func(env *kenv) float64 {
			return env.readers[r].Get(idx(env))
		}, nil
	case astBin:
		l, err := kc.compileExpr(e.l, scope)
		if err != nil {
			return nil, err
		}
		r, err := kc.compileExpr(e.r, scope)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case '+':
			return func(env *kenv) float64 { return l(env) + r(env) }, nil
		case '-':
			return func(env *kenv) float64 { return l(env) - r(env) }, nil
		case '*':
			return func(env *kenv) float64 { return l(env) * r(env) }, nil
		case '/':
			return func(env *kenv) float64 { return l(env) / r(env) }, nil
		}
	case astNeg:
		inner, err := kc.compileExpr(e.e, scope)
		if err != nil {
			return nil, err
		}
		return func(env *kenv) float64 { return -inner(env) }, nil
	}
	return nil, errAt(0, "unsupported expression")
}
