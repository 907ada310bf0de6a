package main

import (
	"bytes"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestFlagSurface pins crlang's flags, names and defaults, to the list it
// had before its flags were bound through bench.Flags.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{"engine": "cr", "nodes": "4", "dump": "false"}
	got := map[string]string{}
	f := bench.NewFlags("crlang", io.Discard)
	if status := run(f, []string{"-h"}, io.Discard); status != 0 {
		t.Fatalf("crlang -h: exit %d", status)
	}
	f.VisitAll(func(fl *flag.Flag) { got[fl.Name] = fl.DefValue })
	if len(got) != len(want) {
		t.Errorf("crlang has %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
}

// TestRunStatuses: -h exits 0; a malformed flag, a bad value or a missing
// source file exits 1 with one "crlang: " line.
func TestRunStatuses(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of crlang:\n"},
		{[]string{"-bogus", "x.cr"}, 1, "crlang: flag provided but not defined: -bogus\n"},
		{[]string{"-nodes", "abc", "x.cr"}, 1, "crlang: invalid value \"abc\" for flag -nodes: parse error\n"},
		{nil, 1, "crlang: usage: crlang [-engine seq|implicit|cr] [-nodes N] [-dump] file.cr\n"},
	} {
		var stdout, stderr bytes.Buffer
		status := run(bench.NewFlags("crlang", &stderr), tc.args, &stdout)
		if status != tc.status || !strings.HasPrefix(stderr.String(), tc.stderr) || status == 1 && stderr.String() != tc.stderr {
			t.Errorf("crlang %v: exit %d, stderr %q; want exit %d, stderr %q", tc.args, status, stderr.String(), tc.status, tc.stderr)
		}
	}
}

// TestCheckFlags: an unknown engine, or a node count below 1 for an engine
// that runs on the simulated machine, is a one-line command-line error
// before any source is read; the sequential engine ignores -nodes. The
// source file does not exist, so a run whose flags pass fails reading it.
func TestCheckFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.cr")
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
		want := "crlang: " + tc.err + "\n"
		if tc.err == "" {
			want = "crlang: open " + missing + ": no such file or directory\n"
		}
		var stdout, stderr bytes.Buffer
		args := []string{"-engine", tc.engine, "-nodes", strconv.Itoa(tc.nodes), missing}
		if code := run(bench.NewFlags("crlang", &stderr), args, &stdout); code != 1 || stderr.String() != want {
			t.Errorf("crlang %v: exit %d, stderr %q, want %q", args, code, stderr.String(), want)
		}
	}
}

// TestRunPrintsErrorsNotStackTraces: each syntax error of a source is its
// own "crlang: " line, and a kernel that reads past its block is a one-line
// error with exit status 1 under the sequential engine as under cr.
func TestRunPrintsErrorsNotStackTraces(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	twoErrors := write("two.cr", `program p
region R[0..7] fields { x y }
partition P = blok(R, 2)
`)
	pastBlock := write("past.cr", `program p
region R[0..7] fields { x }
partition P = block(R, 2)
task t(r: region writes(x) reads(x)) { for p in r { r.x[p] = r.x[p + 1] } }
fill R.x = idx
for s = 0, 1 { launch t(P[i]) }
`)
	const panicked = "task execution panicked: region: point <4> outside footprint {[<0>..<3>]}\n"
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-engine", "seq", twoErrors}, `crlang: lang: line 2:27: expected "}", found "y"
crlang: lang: line 3:15: unknown partition operator "blok" (have block, image)
`},
		{[]string{"-engine", "seq", pastBlock}, "crlang: ir: " + panicked},
		{[]string{"-engine", "cr", pastBlock}, "crlang: spmd: " + panicked},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(bench.NewFlags("crlang", &stderr), tc.args, &stdout); code != 1 || stderr.String() != tc.stderr {
			t.Errorf("crlang %v: exit %d, stderr\n%s\nwant exit 1, stderr\n%s", tc.args, code, stderr.String(), tc.stderr)
		}
	}
}

// TestTopOfRangeRunsLikeShifted: a halo exchange on the last 64 points of
// int64 prints what the same program 744 points lower prints, under every
// engine. The window's upper end sits at MaxInt64 there, and the sweeps
// that build and intersect its halo must not step past it.
func TestTopOfRangeRunsLikeShifted(t *testing.T) {
	dir := t.TempDir()
	source := func(lo int64) string {
		src := `program heatw
region T[$lo..$hi]    fields { cur }
region TNEW[$lo..$hi] fields { next }
partition PT   = block(T, 8)
partition PNEW = block(TNEW, 8)
partition HALO = image(T, PT, window(-1, 1))
task diffuse(out: region writes(next), in: region reads(cur)) {
  for p in out { out.next[p] = 0.5 * in.cur[p] }
}
task commit(t: region writes(cur), n: region reads(next), source: scalar) {
  for p in t { t.cur[p] = n.next[p] + source }
}
task energy(t: region reads(cur)) {
  for p in t { result += t.cur[p] }
}
fill T.cur     = 1
fill TNEW.next = 0
var heating = 0.01
for step = 0, 6 {
  launch diffuse(PNEW[i], HALO[i])
  launch commit(PT[i], PNEW[i]; heating)
  reduce + total = launch energy(PT[i])
}
`
		src = strings.NewReplacer("$lo", strconv.FormatInt(lo, 10), "$hi", strconv.FormatInt(lo+63, 10)).Replace(src)
		path := filepath.Join(dir, strconv.FormatInt(lo, 10)+".cr")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	top, shifted := source(math.MaxInt64-63), source(math.MaxInt64-63-744)
	for _, engine := range []string{"seq", "implicit", "cr"} {
		var out [2]bytes.Buffer
		for i, path := range []string{top, shifted} {
			var stderr bytes.Buffer
			if code := run(bench.NewFlags("crlang", &stderr), []string{"-engine", engine, path}, &out[i]); code != 0 {
				t.Fatalf("crlang -engine %s %s: exit %d: %s", engine, filepath.Base(path), code, stderr.String())
			}
		}
		if out[0].String() != out[1].String() {
			t.Errorf("-engine %s: the top of int64 prints\n%s\nthe shifted program\n%s", engine, out[0].String(), out[1].String())
		}
	}
}

// TestEnginesGolden pins what each engine prints for the heat example:
// testdata/heat_golden.txt holds the three runs' stdout, each under an
// "== engine" line.
func TestEnginesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/heat_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, engine := range []string{"seq", "implicit", "cr"} {
		got.WriteString("== " + engine + "\n")
		var stderr bytes.Buffer
		if code := run(bench.NewFlags("crlang", &stderr), []string{"-engine", engine, "../../testdata/heat.cr"}, &got); code != 0 {
			t.Fatalf("crlang -engine %s: exit %d: %s", engine, code, stderr.String())
		}
	}
	if got.String() != string(want) {
		t.Errorf("stdout differs from testdata/heat_golden.txt:\n%s", got.String())
	}
}
