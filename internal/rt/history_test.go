package rt

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// TestUseDominationKeepsHistoryBounded: iterating the figure-2 loop many
// times must not grow the analysis history, since full-partition writers
// absorb earlier epochs. It reads the engine's private history, so it
// drives the engine itself.
func TestUseDominationKeepsHistoryBounded(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 20)
	eng := New(realm.MustNewSim(realm.DefaultConfig(2)), f.Prog, ir.ExecModeled)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for root, uses := range eng.users {
		if len(uses) > 8 {
			t.Errorf("history for %s grew to %d uses", root.Name(), len(uses))
		}
	}
}
