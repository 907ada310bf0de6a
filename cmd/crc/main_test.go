package main

import "testing"

// TestCheckNodesRejectsNonPositive: a node count below 1 is a command-line
// error, not a panic inside an app's builder.
func TestCheckNodesRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -64} {
		if err := checkNodes(n); err == nil {
			t.Errorf("checkNodes(%d) accepted a node count no app can be built for", n)
		}
	}
	if err := checkNodes(1); err != nil {
		t.Errorf("checkNodes(1) = %v", err)
	}
}
