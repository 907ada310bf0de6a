package main

import "testing"

// TestCheckFlags: an unknown engine, or a node count below 1 for an engine
// that runs on the simulated machine, is a one-line command-line error
// before any source is read; the sequential engine ignores -nodes.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		engine string
		nodes  int
		err    string
	}{
		{"seq", 4, ""},
		{"seq", 0, ""},
		{"implicit", 1, ""},
		{"cr", 4, ""},
		{"implicit", 0, "bad -nodes 0 (want at least 1)"},
		{"cr", 0, "bad -nodes 0 (want at least 1)"},
		{"cr", -3, "bad -nodes -3 (want at least 1)"},
		{"bogus", 4, `unknown engine "bogus"`},
		{"", 4, `unknown engine ""`},
		{"CR", 4, `unknown engine "CR"`},
	} {
		got := ""
		if err := checkFlags(tc.engine, tc.nodes); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("checkFlags(%q, %d) = %q, want %q", tc.engine, tc.nodes, got, tc.err)
		}
	}
}
