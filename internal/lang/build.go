package lang

import (
	"fmt"
	"math"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Compile parses and semantically analyzes source text, returning the
// ir.Program ready for any of the engines (sequential, implicit, or
// control-replicated).
func Compile(src string) (*ir.Program, error) {
	ast, err := parse(src)
	if err != nil {
		return nil, err
	}
	b := &builder{
		ast:      ast,
		regions:  map[string]*region.Region{},
		fieldIDs: map[string]map[string]region.FieldID{},
		parts:    map[string]*region.Partition{},
		tasks:    map[string]*astTask{},
		irTasks:  map[string]*ir.TaskDecl{},
		scalars:  map[string]bool{},
	}
	return b.build()
}

type builder struct {
	ast      *astProgram
	prog     *ir.Program
	regions  map[string]*region.Region
	fieldIDs map[string]map[string]region.FieldID
	parts    map[string]*region.Partition
	tasks    map[string]*astTask
	irTasks  map[string]*ir.TaskDecl
	scalars  map[string]bool
}

// clip returns x+k clamped to the region [lo, hi] that holds x, with -1 or
// +1 when x+k lies below or above it. The region's element count fits in
// an int64, so no step leaves int64.
func clip(x, k, lo, hi int64) (int64, int) {
	switch {
	case k > hi-x:
		return hi, 1
	case k < lo-x:
		return lo, -1
	}
	return x + k, 0
}

// functor returns the rectangles an image functor maps a source index
// space to in the region [lo, hi]: none when w < a or the source is empty.
// window(a, w) and ring(a, w) map each source span [s0, s1] to
// [s0+a, s1+w]: window clips it to the region, dropping it when it lies
// wholly outside; ring wraps it around the region — at most two rectangles, or the whole region
// when the window covers it — and shift(k) is ring(k, k). Offsets are
// taken modulo the region's size in uint64, so no step leaves the integers.
func functor(fn astFunctor, lo, hi int64) func(geometry.IndexSpace) []geometry.Rect {
	a, w := fn.a, fn.b
	if fn.kind == "shift" {
		w = a
	}
	size := uint64(hi) - uint64(lo) + 1
	shift := a % int64(size)
	if shift < 0 {
		shift += int64(size)
	}
	return func(is geometry.IndexSpace) []geometry.Rect {
		if w < a || is.NumSpans() == 0 {
			return nil
		}
		var out []geometry.Rect
		for i := range is.NumSpans() {
			sp := is.Span(i)
			if fn.kind == "window" {
				wlo, loSide := clip(sp.Lo.X(), a, lo, hi)
				whi, hiSide := clip(sp.Hi.X(), w, lo, hi)
				if loSide <= 0 && hiSide >= 0 { // else wholly above or below the region
					out = append(out, geometry.R1(wlo, whi))
				}
				continue
			}
			span := uint64(sp.Hi.X()) - uint64(sp.Lo.X()) + 1
			if uint64(w)-uint64(a) >= size-span {
				return []geometry.Rect{geometry.R1(lo, hi)}
			}
			off := (uint64(sp.Lo.X()) - uint64(lo) + uint64(shift)) % size
			end := off + span + uint64(w) - uint64(a) // one past the image, unwrapped
			if end <= size {
				out = append(out, geometry.R1(lo+int64(off), lo+int64(end-1)))
			} else {
				out = append(out, geometry.R1(lo+int64(off), hi), geometry.R1(lo, lo+int64(end-size-1)))
			}
		}
		return out
	}
}

func errAt(line int, format string, args ...interface{}) error {
	return fmt.Errorf("lang: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (b *builder) build() (*ir.Program, error) {
	b.prog = ir.NewProgram(b.ast.name)

	for _, r := range b.ast.regions {
		if _, dup := b.regions[r.name]; dup {
			return nil, errAt(r.line, "duplicate region %q", r.name)
		}
		if r.hi < r.lo {
			return nil, errAt(r.line, "region %q has empty range", r.name)
		}
		if uint64(r.hi)-uint64(r.lo) >= math.MaxInt64 {
			return nil, errAt(r.line, "region %q has more elements than an int64 can count", r.name)
		}
		fs := region.NewFieldSpace(r.fields...)
		reg := b.prog.Tree.NewRegion(r.name, geometry.NewIndexSpace(geometry.R1(r.lo, r.hi)))
		b.prog.FieldSpaces[reg] = fs
		b.regions[r.name] = reg
		ids := map[string]region.FieldID{}
		for _, f := range r.fields {
			if _, dup := ids[f]; dup {
				return nil, errAt(r.line, "duplicate field %q in region %q", f, r.name)
			}
			ids[f] = fs.Field(f)
		}
		b.fieldIDs[r.name] = ids
	}

	for _, pd := range b.ast.parts {
		if _, dup := b.parts[pd.name]; dup {
			return nil, errAt(pd.line, "duplicate partition %q", pd.name)
		}
		reg, ok := b.regions[pd.region]
		if !ok {
			return nil, errAt(pd.line, "unknown region %q", pd.region)
		}
		switch pd.kind {
		case "block":
			if pd.n < 1 {
				return nil, errAt(pd.line, "block count must be positive")
			}
			b.parts[pd.name] = reg.Block(pd.name, pd.n)
		case "image":
			src, ok := b.parts[pd.srcPd]
			if !ok {
				return nil, errAt(pd.line, "unknown source partition %q", pd.srcPd)
			}
			bounds := reg.IndexSpace().Bounds()
			b.parts[pd.name] = region.ImageRects(reg, src, pd.name, functor(pd.fn, bounds.Lo.X(), bounds.Hi.X()))
		}
	}

	for _, tk := range b.ast.tasks {
		if _, dup := b.tasks[tk.name]; dup {
			return nil, errAt(tk.line, "duplicate task %q", tk.name)
		}
		seen := map[string]bool{}
		for _, prm := range tk.params {
			if seen[prm.name] {
				return nil, errAt(prm.line, "duplicate parameter %q in task %q", prm.name, tk.name)
			}
			seen[prm.name] = true
			if prm.isScalar {
				continue
			}
			if len(prm.reduces) > 0 && (len(prm.reads) > 0 || len(prm.writes) > 0) {
				return nil, errAt(prm.line, "parameter %q mixes reduces with reads/writes", prm.name)
			}
		}
		b.tasks[tk.name] = tk
	}

	stmts, err := b.buildStmts(b.ast.stmts, map[string]bool{})
	if err != nil {
		return nil, err
	}
	b.prog.Stmts = stmts
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

func (b *builder) buildStmts(in []astStmt, loopVars map[string]bool) ([]ir.Stmt, error) {
	var out []ir.Stmt
	for _, s := range in {
		switch s := s.(type) {
		case *astFill:
			if len(loopVars) > 0 {
				return nil, errAt(s.line, "fill statements are setup-only, not allowed inside loops")
			}
			reg, ok := b.regions[s.region]
			if !ok {
				return nil, errAt(s.line, "unknown region %q", s.region)
			}
			fid, ok := b.fieldIDs[s.region][s.field]
			if !ok {
				return nil, errAt(s.line, "region %q has no field %q", s.region, s.field)
			}
			if s.idx {
				out = append(out, &ir.FillFunc{Target: reg, Field: fid, Fn: func(p geometry.Point) float64 {
					return float64(p.X())
				}})
			} else {
				out = append(out, &ir.Fill{Target: reg, Field: fid, Value: s.value})
			}
		case *astVar:
			if b.scalars[s.name] {
				return nil, errAt(s.line, "duplicate variable %q", s.name)
			}
			b.scalars[s.name] = true
			b.prog.Scalars[s.name] = s.value
		case *astLoop:
			if s.lo != 0 {
				return nil, errAt(s.line, "loops must start at 0 (for %s = 0, N)", s.v)
			}
			if s.hi < 0 {
				return nil, errAt(s.line, "loop %q has negative trip count", s.v)
			}
			inner := map[string]bool{}
			for k := range loopVars {
				inner[k] = true
			}
			inner[s.v] = true
			body, err := b.buildStmts(s.body, inner)
			if err != nil {
				return nil, err
			}
			out = append(out, &ir.Loop{Var: s.v, Trip: int(s.hi), Body: body})
		case *astLaunch:
			l, err := b.buildLaunch(s, loopVars)
			if err != nil {
				return nil, err
			}
			out = append(out, l)
		}
	}
	return out, nil
}

// paramInfo is the resolved binding of one task parameter.
type paramInfo struct {
	isScalar  bool
	scalarIdx int
	argIdx    int
	// allowed accesses at the DSL level (finer than ir privileges).
	readable map[string]region.FieldID
	writable map[string]region.FieldID
	reduced  map[string]region.FieldID
	op       region.ReductionOp
}

func (b *builder) buildLaunch(l *astLaunch, loopVars map[string]bool) (*ir.Launch, error) {
	tk, ok := b.tasks[l.task]
	if !ok {
		return nil, errAt(l.line, "unknown task %q", l.task)
	}
	var regionParams, scalarParams []astParam
	for _, prm := range tk.params {
		if prm.isScalar {
			scalarParams = append(scalarParams, prm)
		} else {
			regionParams = append(regionParams, prm)
		}
	}
	if len(l.args) != len(regionParams) {
		return nil, errAt(l.line, "task %q takes %d region arguments, launch passes %d", l.task, len(regionParams), len(l.args))
	}
	if len(l.scalarArgs) != len(scalarParams) {
		return nil, errAt(l.line, "task %q takes %d scalar arguments, launch passes %d", l.task, len(scalarParams), len(l.scalarArgs))
	}
	if len(regionParams) == 0 {
		return nil, errAt(l.line, "launch of task %q has no region argument to take its domain from", l.task)
	}

	// Resolve partitions and fields.
	var args []ir.RegionArg
	var infos []paramInfo
	var irParams []ir.Param
	for i, name := range l.args {
		part, ok := b.parts[name]
		if !ok {
			return nil, errAt(l.line, "unknown partition %q", name)
		}
		args = append(args, ir.RegionArg{Part: part})
		prm := regionParams[i]
		regName := part.Parent().Root().Name()
		ids := b.fieldIDs[regName]
		resolve := func(names []string) (map[string]region.FieldID, []region.FieldID, error) {
			m := map[string]region.FieldID{}
			var list []region.FieldID
			for _, f := range names {
				id, ok := ids[f]
				if !ok {
					return nil, nil, errAt(prm.line, "region %q (bound to parameter %q) has no field %q", regName, prm.name, f)
				}
				if _, dup := m[f]; dup {
					return nil, nil, errAt(prm.line, "parameter %q names field %s twice", prm.name, f)
				}
				m[f] = id
				list = append(list, id)
			}
			return m, list, nil
		}
		info := paramInfo{argIdx: i}
		readM, readL, err := resolve(prm.reads)
		if err != nil {
			return nil, err
		}
		writeM, writeL, err := resolve(prm.writes)
		if err != nil {
			return nil, err
		}
		redM, redL, err := resolve(prm.reduces)
		if err != nil {
			return nil, err
		}
		var p ir.Param
		switch {
		case len(writeL) > 0:
			p = ir.Param{Name: prm.name, Priv: ir.PrivReadWrite, Fields: region.UnionFields(writeL, readL)}
			info.readable = merge(readM, writeM)
			info.writable = writeM
		case len(redL) > 0:
			op := map[string]region.ReductionOp{"+": region.ReduceSum, "min": region.ReduceMin, "max": region.ReduceMax}[prm.reduceOp]
			p = ir.Param{Name: prm.name, Priv: ir.PrivReduce, Op: op, Fields: redL}
			info.reduced = redM
			info.op = op
		default:
			p = ir.Param{Name: prm.name, Priv: ir.PrivRead, Fields: readL}
			info.readable = readM
		}
		irParams = append(irParams, p)
		infos = append(infos, info)
	}
	for i := range scalarParams {
		infos = append(infos, paramInfo{isScalar: true, scalarIdx: i})
	}

	// Build (or reuse) the ir.TaskDecl; repeated launches must resolve to
	// identical bindings, since the kernel closure bakes the field IDs in.
	decl, seen := b.irTasks[tk.name]
	if seen {
		if len(decl.Params) != len(irParams) {
			return nil, errAt(l.line, "task %q launched with inconsistent signatures", tk.name)
		}
		for i := range irParams {
			if !sameParam(decl.Params[i], irParams[i]) {
				return nil, errAt(l.line, "task %q launched with inconsistent region bindings (parameter %q)", tk.name, irParams[i].Name)
			}
		}
	} else {
		byName := map[string]paramInfo{}
		for i, prm := range regionParams {
			byName[prm.name] = infos[i]
		}
		for i, prm := range scalarParams {
			byName[prm.name] = infos[len(regionParams)+i]
		}
		kernel, err := b.compileKernel(tk, byName)
		if err != nil {
			return nil, err
		}
		decl = &ir.TaskDecl{
			Name:        tk.name,
			Params:      irParams,
			NumScalars:  len(scalarParams),
			Kernel:      kernel,
			CostPerElem: 100,
		}
		b.irTasks[tk.name] = decl
	}

	// Launch domain: the first region argument's colors; all arguments must
	// agree.
	domain := args[0].Part.Colors()
	for _, a := range args[1:] {
		if len(a.Part.Colors()) != len(domain) {
			return nil, errAt(l.line, "launch arguments have different color counts")
		}
	}

	var scalarExprs []ir.ScalarExpr
	for _, se := range l.scalarArgs {
		switch se := se.(type) {
		case astNum:
			scalarExprs = append(scalarExprs, ir.ConstExpr(se.v))
		case astRef:
			if !b.scalars[se.name] && !loopVars[se.name] {
				return nil, errAt(se.line, "unknown scalar %q", se.name)
			}
			scalarExprs = append(scalarExprs, ir.VarExpr(se.name))
		}
	}

	launch := &ir.Launch{
		Task:       decl,
		Domain:     domain,
		Args:       args,
		ScalarArgs: scalarExprs,
		Label:      l.task,
	}
	if l.reduceOp != "" {
		op := map[string]region.ReductionOp{"+": region.ReduceSum, "min": region.ReduceMin, "max": region.ReduceMax}[l.reduceOp]
		launch.Reduce = &ir.ScalarReduce{Into: l.reduceInto, Op: op}
		b.scalars[l.reduceInto] = true
		if _, ok := b.prog.Scalars[l.reduceInto]; !ok {
			b.prog.Scalars[l.reduceInto] = op.Identity()
		}
	}
	return launch, nil
}

func merge(a, b map[string]region.FieldID) map[string]region.FieldID {
	out := map[string]region.FieldID{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

func sameParam(a, b ir.Param) bool {
	if a.Priv != b.Priv || a.Op != b.Op || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}
