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
