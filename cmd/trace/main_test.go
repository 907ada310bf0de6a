package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// trace runs the command on args and returns its exit status and stderr.
func trace(args ...string) (int, string) {
	var stderr bytes.Buffer
	return run(bench.NewFlags("trace", &stderr), args, io.Discard), stderr.String()
}

// TestFlagSurface pins trace's flags, names and defaults, to the list it
// had before its flags were bound through bench.Flags.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{"app": "pennant", "nodes": "4", "iters": "4", "cr": "true", "o": "trace.json"}
	got := map[string]string{}
	f := bench.NewFlags("trace", io.Discard)
	if status := run(f, []string{"-h"}, io.Discard); status != 0 {
		t.Fatalf("trace -h: exit %d", status)
	}
	f.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) {
		t.Errorf("trace has %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
}

// TestRunStatuses: -h exits 0; a malformed flag or a bad value exits 1
// with one "trace: " line; a run writes the timeline and exits 0.
func TestRunStatuses(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of trace:\n"},
		{[]string{"-bogus"}, 1, "trace: flag provided but not defined: -bogus\n"},
		{[]string{"-iters", "abc"}, 1, "trace: invalid value \"abc\" for flag -iters: parse error\n"},
		{[]string{"-app", "stencil", "-nodes", "2", "-iters", "2", "-o", out}, 0, ""},
	} {
		status, stderr := trace(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || status == 1 && stderr != tc.stderr {
			t.Errorf("trace %v: exit %d, stderr %q; want exit %d, stderr %q", tc.args, status, stderr, tc.status, tc.stderr)
		}
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("trace -o %s wrote nothing: %v", out, err)
	}
}

// TestCheckFlagsRejectsNonPositive: a node or iteration count below 1 is a
// command-line error, not a panic inside an app's builder or the engine.
func TestCheckFlagsRejectsNonPositive(t *testing.T) {
	for _, tc := range []struct{ nodes, iters, bad string }{
		{"0", "4", "bad -nodes 0"}, {"-2", "4", "bad -nodes -2"}, {"4", "0", "bad -iters 0"}, {"4", "-1", "bad -iters -1"},
	} {
		if status, stderr := trace("-nodes", tc.nodes, "-iters", tc.iters); status != 1 || stderr != "trace: "+tc.bad+" (want at least 1)\n" {
			t.Errorf("trace -nodes %s -iters %s: exit %d, stderr %q; want %q", tc.nodes, tc.iters, status, stderr, tc.bad)
		}
	}
	if status, stderr := trace("-nodes", "1", "-iters", "1", "-o", filepath.Join(t.TempDir(), "t.json")); status != 0 {
		t.Errorf("trace -nodes 1 -iters 1: exit %d: %s", status, stderr)
	}
}
