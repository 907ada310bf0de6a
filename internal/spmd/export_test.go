package spmd

import (
	"slices"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// LoopRun is a test's view of one replicated loop's run state once the
// loop has finalized.
type LoopRun struct{ st *runState }

// OnLoopFinalized makes e hand fn each loop's run state once the loop has
// finalized.
func OnLoopFinalized(e *Engine, fn func(LoopRun)) {
	e.finalized = func(st *runState) { fn(LoopRun{st}) }
}

// Plan returns the loop's compiled plan.
func (r LoopRun) Plan() *cr.Compiled { return r.st.plan }

// Instance returns the Real-mode instance of part's subregion of colour col.
func (r LoopRun) Instance(part *region.Partition, col geometry.Point) *region.Store {
	st := r.st
	return st.stores[st.ix.Key(int32(slices.Index(st.plan.UsedParts, part)), st.plan.ColorIdx[col])]
}

// Temps calls fn with every Real-mode reduce temporary and the launch and
// argument it reduces.
func (r LoopRun) Temps(fn func(l *ir.Launch, arg int, s *region.Store)) {
	st := r.st
	for key := len(st.plan.UsedParts) * len(st.plan.Domain); key < st.ix.Keys(); key++ {
		slot, _ := st.ix.Split(int32(key))
		fn(st.ix.Slots[slot].Launch, st.ix.Slots[slot].Arg, st.stores[key])
	}
}
