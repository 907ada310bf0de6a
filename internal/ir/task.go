// Package ir is the program representation for the Regent subset that
// control replication targets (paper §2.2): programs whose main loops are
// forall-style index launches of tasks over partitioned regions, with
// privileges declared per region parameter, plus restricted scalar
// statements and scalar reductions.
//
// Task bodies are opaque Go functions, exactly as task bodies are opaque to
// the Regent compiler: every property the analyses need — privileges,
// fields, the partitions accessed, and partition disjointness — is carried
// by the IR, and the paper's requirement that "a compile-time analysis need
// not consider the code inside of a task" is preserved by enforcing the
// declarations at runtime.
//
// A kernel reaches its data through accessors it takes from the TaskCtx
// once, at entry (see access.go): Reader, Writer and Reducer check field
// membership, privilege and reduction operator when they are created and
// panic on an undeclared access; every point they are then asked for is
// resolved against the argument's region, so a point outside the declared
// subregion panics identically under every executor. What is left per
// access is a bounds check against the span last hit.
package ir

import (
	"fmt"
	"slices"

	"repro/internal/geometry"
	"repro/internal/region"
)

// Privilege is a task's declared right on a region parameter.
type Privilege int8

// The privilege lattice of §2.1: read-only, read-write, and reduction with
// an associative commutative operator.
const (
	PrivRead Privilege = iota
	PrivReadWrite
	PrivReduce
)

// String names the privilege.
func (p Privilege) String() string {
	switch p {
	case PrivRead:
		return "reads"
	case PrivReadWrite:
		return "reads writes"
	case PrivReduce:
		return "reduces"
	default:
		return fmt.Sprintf("Privilege(%d)", int8(p))
	}
}

// Conflicts reports whether an operation with privilege a must be ordered
// against a later operation with privilege b on overlapping data: two reads
// commute, and two reductions with the same operator commute (§2.1).
func Conflicts(a Privilege, aOp region.ReductionOp, b Privilege, bOp region.ReductionOp) bool {
	if a == PrivRead && b == PrivRead {
		return false
	}
	if a == PrivReduce && b == PrivReduce && aOp == bOp {
		return false
	}
	return true
}

// Param declares one region parameter of a task: its privilege, reduction
// operator (for PrivReduce), and the fields it touches.
type Param struct {
	Name   string
	Priv   Privilege
	Op     region.ReductionOp
	Fields []region.FieldID
}

// TaskDecl is a registered task: parameter declarations, an executable
// kernel, and a cost model used to charge virtual time for the kernel.
type TaskDecl struct {
	Name       string
	Params     []Param
	NumScalars int
	// Kernel executes the task body against physical region arguments. It
	// may be nil for model-only tasks.
	Kernel func(*TaskCtx)
	// Cost model: virtual nanoseconds = CostFixed + CostPerElem * volume of
	// region argument CostArg. The engine divides by the effective core
	// count it assigns to the task.
	CostFixed   float64
	CostPerElem float64
	CostArg     int
}

// Cost returns the single-core virtual duration of one task instance whose
// CostArg region has the given volume.
func (t *TaskDecl) Cost(vol int64) float64 {
	return t.CostFixed + t.CostPerElem*float64(vol)
}

// TaskCtx is the execution context handed to a kernel: the physical region
// arguments (aligned with Params), scalar arguments, the task's color in
// its index launch, and the scalar return slot.
type TaskCtx struct {
	Color   geometry.Point
	Args    []PhysArg
	Scalars []float64
	// Return is the task's scalar result, folded across the launch when the
	// launch declares a scalar reduction.
	Return float64
	// Footprints, when set, keeps the footprints this task instance's
	// accessors resolve over several arguments. An executor that runs the
	// same instance (same Args) every iteration shares one between the
	// iterations' contexts, so the tables are built once per run.
	Footprints *FootprintCache
}

// PhysArg is a physical region argument: a subregion, the store backing it,
// the declared privilege, and the footprint resolving the subregion's
// points to the store's slots. It is immutable.
type PhysArg struct {
	Region *region.Region
	Store  *region.Store
	Priv   Privilege
	Op     region.ReductionOp
	fields []region.FieldID // the declaring Param's, shared
	fp     *region.Footprint
}

// NewPhysArg builds a physical argument for a task parameter. st must hold
// every point of r; it may hold more (the root region's store), and points
// outside r still count as outside the argument.
func NewPhysArg(r *region.Region, st *region.Store, p Param) PhysArg {
	return newPhysArg(r, st, st.Layout(), p)
}

// newPhysArg is NewPhysArg for a store that is only known by its layout
// yet; the caller sets Store before the argument is used.
func newPhysArg(r *region.Region, st *region.Store, layout *region.Layout, p Param) PhysArg {
	fp := region.NewFootprint(region.Part{Over: r.IndexSpace(), Layout: layout})
	return PhysArg{Region: r, Store: st, Priv: p.Priv, Op: p.Op, fields: p.Fields, fp: fp}
}

func (a *PhysArg) declares(f region.FieldID) bool { return slices.Contains(a.fields, f) }

// mustRead, mustWrite and mustReduce are the privilege checks, shared by
// the accessors (once, at creation) and the per-point entry below.
func (a *PhysArg) mustRead(f region.FieldID) {
	if !a.declares(f) || a.Priv == PrivReduce {
		panic(fmt.Sprintf("ir: read of field %d without read privilege", f))
	}
}

func (a *PhysArg) mustWrite(f region.FieldID) {
	if !a.declares(f) || a.Priv != PrivReadWrite {
		panic(fmt.Sprintf("ir: write of field %d without write privilege", f))
	}
}

func (a *PhysArg) mustReduce(f region.FieldID, op region.ReductionOp) {
	if !a.declares(f) || a.Priv != PrivReduce || op != a.Op {
		panic(fmt.Sprintf("ir: reduction %v of field %d without matching reduce privilege", op, f))
	}
}

// at resolves p to its element of field f.
func (a *PhysArg) at(f region.FieldID, p geometry.Point) *float64 {
	_, slot := a.fp.Locate(p)
	return &a.Store.Raw(f)[slot]
}

// Get, Set and Reduce are the per-point entry: each call checks the
// privilege and resolves the point afresh. They suit tests and one-off
// accesses; a kernel's loops take accessors from the TaskCtx instead.

// Get reads field f at point p; the task must hold a read-bearing privilege
// on f.
func (a *PhysArg) Get(f region.FieldID, p geometry.Point) float64 {
	a.mustRead(f)
	return *a.at(f, p)
}

// Set writes field f at point p; the task must hold read-write privilege.
func (a *PhysArg) Set(f region.FieldID, p geometry.Point, v float64) {
	a.mustWrite(f)
	*a.at(f, p) = v
}

// Reduce folds v into field f at point p with the declared operator; the
// task must hold the matching reduce privilege.
func (a *PhysArg) Reduce(f region.FieldID, op region.ReductionOp, p geometry.Point, v float64) {
	a.mustReduce(f, op)
	x := a.at(f, p)
	*x = op.Fold(*x, v)
}

// Each iterates the argument's index space.
func (a *PhysArg) Each(fn func(geometry.Point) bool) {
	a.Region.IndexSpace().Each(fn)
}
