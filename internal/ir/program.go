package ir

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geometry"
	"repro/internal/region"
)

// Program is an implicitly parallel program: a region forest, field spaces
// for its root regions, initial scalar bindings, and a statement list whose
// main loops are the targets of control replication.
type Program struct {
	Name        string
	Tree        *region.Tree
	FieldSpaces map[*region.Region]*region.FieldSpace // keyed by root region
	Scalars     map[string]float64                    // initial scalar bindings
	Stmts       []Stmt
}

// NewProgram creates an empty program over a fresh region tree.
func NewProgram(name string) *Program {
	return &Program{
		Name:        name,
		Tree:        region.NewTree(),
		FieldSpaces: make(map[*region.Region]*region.FieldSpace),
		Scalars:     make(map[string]float64),
	}
}

// FieldSpaceOf returns the field space of a region's root.
func (p *Program) FieldSpaceOf(r *region.Region) *region.FieldSpace {
	fs, ok := p.FieldSpaces[r.Root()]
	if !ok {
		panic(fmt.Sprintf("ir: region %s has no registered field space", r.Name()))
	}
	return fs
}

// Roots returns the program's root regions (those with a field space) in
// creation order.
func (p *Program) Roots() []*region.Region {
	roots := make([]*region.Region, 0, len(p.FieldSpaces))
	for r := range p.FieldSpaces {
		roots = append(roots, r)
	}
	slices.SortFunc(roots, func(a, b *region.Region) int { return cmp.Compare(a.ID(), b.ID()) })
	return roots
}

// NewStores builds one zeroed store per root region, keyed by the root.
func (p *Program) NewStores() map[*region.Region]*region.Store {
	stores := make(map[*region.Region]*region.Store, len(p.FieldSpaces))
	for _, r := range p.Roots() {
		stores[r] = region.NewStore(r.IndexSpace(), p.FieldSpaces[r])
	}
	return stores
}

// Add appends statements to the program.
func (p *Program) Add(stmts ...Stmt) { p.Stmts = append(p.Stmts, stmts...) }

// Stmt is a program statement.
type Stmt interface{ stmt() }

// Fill sets a field of a region to a constant value; a setup statement.
type Fill struct {
	Target *region.Region
	Field  region.FieldID
	Value  float64
}

// FillFunc initializes a field of a region from a function of the point;
// a setup statement, executed only in Real mode (data initialization).
type FillFunc struct {
	Target *region.Region
	Field  region.FieldID
	Fn     func(geometry.Point) float64
}

// Loop is a sequential loop with a fixed trip count — the time-step loop
// control replication is applied to (the "for t = 0, T" of Figure 1a).
type Loop struct {
	Var  string
	Trip int
	Body []Stmt
}

// SetScalar assigns a scalar variable from an expression over the scalar
// environment. Allowed outside inner (parallel) loops, per §4.4.
type SetScalar struct {
	Name string
	Expr func(Env) float64
}

// Launch is a forall-style index launch: one task instance per color of
// Domain, with region arguments projected from partitions (the inner loops
// of Figure 2, lines 24-29).
type Launch struct {
	Task   *TaskDecl
	Domain []geometry.Point
	Args   []RegionArg
	// ScalarArgs supplies the task's scalar arguments, one expression per
	// NumScalars slot.
	ScalarArgs []ScalarExpr
	// Reduce, when non-nil, folds the task instances' scalar returns into a
	// scalar variable (a future-valued dynamic collective under CR, §4.4).
	Reduce *ScalarReduce
	// Label is an optional diagnostic name for this launch site.
	Label string
}

// ScalarReduce names the destination variable and fold operator for a
// launch's scalar-return reduction.
type ScalarReduce struct {
	Into string
	Op   region.ReductionOp
}

// RegionArg is one region argument of an index launch: partition p and
// projection f, denoting p[f(i)] for launch point i. A nil Proj is the
// identity projection; non-identity projections carry a name so analyses
// can distinguish functors without evaluating them (§2.2).
type RegionArg struct {
	Part     *region.Partition
	Proj     func(geometry.Point) geometry.Point
	ProjName string
}

// Identity reports whether the argument uses the identity projection.
func (a RegionArg) Identity() bool { return a.Proj == nil }

// At resolves the argument's subregion for launch color c.
func (a RegionArg) At(c geometry.Point) *region.Region {
	if a.Proj == nil {
		return a.Part.Sub(c)
	}
	return a.Part.Sub(a.Proj(c))
}

func (*Fill) stmt()      {}
func (*FillFunc) stmt()  {}
func (*Loop) stmt()      {}
func (*SetScalar) stmt() {}
func (*Launch) stmt()    {}

// Colors1D returns the 1-D launch domain {0..n-1}.
func Colors1D(n int64) []geometry.Point {
	out := make([]geometry.Point, n)
	for i := int64(0); i < n; i++ {
		out[i] = geometry.Pt1(i)
	}
	return out
}

// ScalarExpr evaluates a scalar argument against the environment. Engines
// call it when the task instance is issued.
type ScalarExpr func(Env) float64

// ConstExpr returns a ScalarExpr yielding a constant.
func ConstExpr(v float64) ScalarExpr { return func(Env) float64 { return v } }

// VarExpr returns a ScalarExpr reading a scalar variable.
func VarExpr(name string) ScalarExpr { return func(e Env) float64 { return e.Get(name) } }

// Env is the scalar environment visible to scalar expressions. Reading a
// variable whose value is still an unresolved future forces it, which in a
// deferred-execution engine means the reader inherits the future's event as
// a precondition (engines arrange for values to be resolved before calling
// expressions, or block the issuing thread).
type Env interface {
	Get(name string) float64
}

// MapEnv is a plain map-backed environment for sequential execution.
type MapEnv map[string]float64

// Get returns the bound value, panicking on unknown names.
func (m MapEnv) Get(name string) float64 {
	v, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("ir: unbound scalar %q", name))
	}
	return v
}

// ExecMode selects whether engines execute task kernels on real data
// (correctness runs) or only charge their modeled costs (scaling runs); the
// control plane — analysis, copies, synchronization — runs identically in
// both. See DESIGN.md §1 for the substitution argument.
type ExecMode int8

// Execution modes.
const (
	ExecReal ExecMode = iota
	ExecModeled
)
