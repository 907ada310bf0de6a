package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// weakscale runs the command on args and returns its exit status, stdout
// and stderr.
func weakscale(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	status := run(bench.NewFlags("weakscale", &stderr), args, &stdout)
	return status, stdout.String(), stderr.String()
}

// TestFlagSurface pins weakscale's flags, names and defaults, to the list
// it had before its flags were bound through bench.Flags.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"app": "all", "nodes": "", "iters": "0", "j": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"csv": "false", "v": "false", "faults": "", "backend": "des",
		"timepolicy": "modeled", "fit-in": "", "fit-out": "",
		"trace": "on", "trace-share": "on", "prune": "off", "agg": "off",
		"verify": "false", "verify-json": "", "cpuprofile": "", "memprofile": "",
	}
	got := map[string]string{}
	f := bench.NewFlags("weakscale", io.Discard)
	if status := run(f, []string{"-h"}, io.Discard); status != 0 {
		t.Fatalf("weakscale -h: exit %d", status)
	}
	f.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) {
		t.Errorf("weakscale has %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
}

// TestRunStatuses: -h exits 0; a malformed flag or a bad value exits 1
// with one "weakscale: " line, never 2, which says a certification found
// something.
func TestRunStatuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of weakscale:\n"},
		{[]string{"-bogus"}, 1, "weakscale: flag provided but not defined: -bogus\n"},
		{[]string{"-iters", "abc"}, 1, "weakscale: invalid value \"abc\" for flag -iters: parse error\n"},
		{[]string{"-trace", "banana"}, 1, "weakscale: bad -trace \"banana\" (want on or off)\n"},
		{[]string{"-app", "bogus"}, 1, "weakscale: harness: unknown app \"bogus\" (have stencil, miniaero, pennant, circuit)\n"},
	} {
		status, _, stderr := weakscale(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || status == 1 && stderr != tc.stderr {
			t.Errorf("weakscale %v: exit %d, stderr %q; want exit %d, stderr %q", tc.args, status, stderr, tc.status, tc.stderr)
		}
	}
}

// TestProfilesSurviveErrors: the CPU and heap profiles are written when
// the run fails too. os.Exit used to skip the deferred writes, leaving an
// empty CPU profile and no heap profile.
func TestProfilesSurviveErrors(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "p.out"), filepath.Join(dir, "m.out")
	if status, _, stderr := weakscale("-cpuprofile", cpu, "-memprofile", mem, "-app", "bogus"); status != 1 {
		t.Fatalf("exit %d, want 1: %s", status, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}

// TestParseFaultsRejectsBadRates: a rate that is not a per-launch crash
// probability in [0, 1] is a command-line error. NaN used to pass the range
// check and then never crash anything, and a rate above 1 is the old
// per-second reading of the flag.
func TestParseFaultsRejectsBadRates(t *testing.T) {
	for _, arg := range []string{"1:NaN", "1:Inf", "1:+Inf", "1:-1", "1:-Inf", "1:1.5", "1:2000"} {
		if status, _, stderr := weakscale("-faults", arg); status != 1 || !strings.HasPrefix(stderr, "weakscale: bad -faults rate") {
			t.Errorf("weakscale -faults %s: exit %d, stderr %q; want a bad-rate error", arg, status, stderr)
		}
	}
	if status, stdout, stderr := weakscale("-faults", "42:0.05", "-app", "stencil", "-nodes", "2", "-iters", "8", "-csv"); status != 0 || !strings.Contains(stdout, "stencil,regent-cr,2,") {
		t.Errorf("weakscale -faults 42:0.05: exit %d, stdout %q, stderr %q", status, stdout, stderr)
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
