package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

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
		if code := run(tc.args, &stdout, &stderr); code != 1 || stderr.String() != tc.stderr {
			t.Errorf("crlang %v: exit %d, stderr\n%s\nwant exit 1, stderr\n%s", tc.args, code, stderr.String(), tc.stderr)
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
		if code := run([]string{"-engine", engine, "../../testdata/heat.cr"}, &got, &stderr); code != 0 {
			t.Fatalf("crlang -engine %s: exit %d: %s", engine, code, stderr.String())
		}
	}
	if got.String() != string(want) {
		t.Errorf("stdout differs from testdata/heat_golden.txt:\n%s", got.String())
	}
}
