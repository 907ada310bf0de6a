package main

import (
	"strings"
	"testing"
)

// TestParseFaultsRejectsBadRates: a rate that is not a finite non-negative
// number is a command-line error. NaN used to pass the range check and then
// never crash anything, and Inf crashed every node at once.
func TestParseFaultsRejectsBadRates(t *testing.T) {
	for _, arg := range []string{"1:NaN", "1:Inf", "1:+Inf", "1:-1", "1:-Inf"} {
		if fp, err := parseFaults(arg); err == nil || !strings.Contains(err.Error(), "bad -faults rate") {
			t.Errorf("parseFaults(%q) = %+v, %v; want a bad-rate error", arg, fp, err)
		}
	}
	fp, err := parseFaults("42:2000")
	if err != nil || fp.Seed != 42 || fp.CrashRate != 2000 {
		t.Errorf("parseFaults(\"42:2000\") = %+v, %v", fp, err)
	}
}

// TestParseSweepRejectsBadCounts: a negative -iters used to run the app
// default silently; it and a node count below 1 are command-line errors.
func TestParseSweepRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		nodes string
		iters int
	}{{"2,4", -3}, {"0", 0}, {"4,-1", 0}, {"abc", 0}} {
		if nodes, err := parseSweep(tc.nodes, tc.iters); err == nil {
			t.Errorf("parseSweep(%q, %d) = %v; want an error", tc.nodes, tc.iters, nodes)
		}
	}
	if nodes, err := parseSweep("1, 4", 2); err != nil || len(nodes) != 2 || nodes[1] != 4 {
		t.Errorf("parseSweep(\"1, 4\", 2) = %v, %v", nodes, err)
	}
}
