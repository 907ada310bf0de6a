package main

import "testing"

// TestCheckFlagsRejectsNonPositive: a node or iteration count below 1 is a
// command-line error, not a panic inside an app's builder or the engine.
func TestCheckFlagsRejectsNonPositive(t *testing.T) {
	for _, tc := range []struct{ nodes, iters int }{{0, 4}, {-2, 4}, {4, 0}, {4, -1}} {
		if err := checkFlags(tc.nodes, tc.iters); err == nil {
			t.Errorf("checkFlags(%d, %d) accepted a run that cannot exist", tc.nodes, tc.iters)
		}
	}
	if err := checkFlags(1, 1); err != nil {
		t.Errorf("checkFlags(1, 1) = %v", err)
	}
}
