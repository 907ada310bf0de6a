package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
)

// crc runs the command on args and returns its exit status and stderr.
func crc(args ...string) (int, string) {
	var stderr bytes.Buffer
	return run(bench.NewFlags("crc", &stderr), args, io.Discard), stderr.String()
}

// TestFlagSurface pins crc's flags, names and defaults, to the list it had
// before its flags were bound through bench.Flags.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"app": "stencil", "nodes": "4", "shards": "0", "sync": "p2p",
		"pairs": "false", "dump": "false", "verify": "false", "verify-json": "",
		"prune": "false", "agg": "false",
	}
	got := map[string]string{}
	f := bench.NewFlags("crc", io.Discard)
	if status := run(f, []string{"-h"}, io.Discard); status != 0 {
		t.Fatalf("crc -h: exit %d", status)
	}
	f.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) {
		t.Errorf("crc has %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
}

// TestRunStatuses: -h exits 0; a malformed flag or a bad value exits 1
// with one "crc: " line, never 2, which says a certification found
// something.
func TestRunStatuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of crc:\n"},
		{[]string{"-bogus"}, 1, "crc: flag provided but not defined: -bogus\n"},
		{[]string{"-nodes", "abc", "-verify"}, 1, "crc: invalid value \"abc\" for flag -nodes: parse error\n"},
		{[]string{"-sync", "bogus"}, 1, "crc: unknown sync mode \"bogus\"\n"},
		{[]string{"-app", "bogus"}, 1, "crc: harness: unknown app \"bogus\" (have stencil, miniaero, pennant, circuit)\n"},
	} {
		status, stderr := crc(tc.args...)
		if status != tc.status || !strings.HasPrefix(stderr, tc.stderr) || status == 1 && stderr != tc.stderr {
			t.Errorf("crc %v: exit %d, stderr %q; want exit %d, stderr %q", tc.args, status, stderr, tc.status, tc.stderr)
		}
	}
}

// TestCheckNodesRejectsNonPositive: a node count below 1 is a command-line
// error, not a panic inside an app's builder.
func TestCheckNodesRejectsNonPositive(t *testing.T) {
	for _, n := range []string{"0", "-1", "-64"} {
		if status, stderr := crc("-nodes", n); status != 1 || stderr != "crc: bad -nodes "+n+" (want at least 1)\n" {
			t.Errorf("crc -nodes %s: exit %d, stderr %q; want a bad -nodes error", n, status, stderr)
		}
	}
	if status, stderr := crc("-nodes", "1"); status != 0 {
		t.Errorf("crc -nodes 1: exit %d: %s", status, stderr)
	}
}
