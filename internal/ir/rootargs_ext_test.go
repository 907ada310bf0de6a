package ir_test

import (
	"slices"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/ir"
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
