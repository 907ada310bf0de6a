package main

import (
	"slices"
	"testing"

	"repro/internal/bench"
)

// TestParseNodes: intersect's -nodes list is node counts of at least 1, spaces
// allowed around each; anything else names the bad entry.
func TestParseNodes(t *testing.T) {
	for _, tc := range []struct {
		list  string
		nodes []int
		err   string
	}{
		{"64,1024", []int{64, 1024}, ""},
		{" 4 , 16", []int{4, 16}, ""},
		{"1", []int{1}, ""},
		{"0", nil, `bad node count "0"`},
		{"4,-1", nil, `bad node count "-1"`},
		{"4,abc", nil, `bad node count "abc"`},
		{"4,,8", nil, `bad node count ""`},
		{"", nil, `bad node count ""`},
	} {
		nodes, err := bench.ParseNodes(tc.list)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.err || !slices.Equal(nodes, tc.nodes) {
			t.Errorf("bench.ParseNodes(%q) = %v, %q; want %v, %q", tc.list, nodes, got, tc.nodes, tc.err)
		}
	}
}
