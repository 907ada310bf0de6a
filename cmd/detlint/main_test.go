package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunArgs: detlint answers go vet's two probes, vets one *.cfg, and
// rejects every other argument list with the usage line.
func TestRunArgs(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "vet.out")
	cfg, err := json.Marshal(map[string]any{"VetxOnly": true, "VetxOutput": vetx})
	if err != nil {
		t.Fatal(err)
	}
	unit := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(unit, cfg, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-V=full"}, 0, "detlint version v1.0.0\n", ""},
		{[]string{"--V=full"}, 0, "detlint version v1.0.0\n", ""},
		{[]string{"-flags"}, 0, "[]\n", ""},
		{[]string{"--flags"}, 0, "[]\n", ""},
		{[]string{unit}, 0, "", ""},
		{[]string{filepath.Join(dir, "missing.cfg")}, 1, "", "detlint: open "},
		{nil, 1, "", usage},
		{[]string{"./..."}, 1, "", usage},
		{[]string{"-json", "./internal/rt"}, 1, "", usage},
		{[]string{"-V=full", unit}, 1, "", usage},
		{[]string{unit, unit}, 1, "", usage},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || stdout.String() != tc.stdout || !strings.HasPrefix(stderr.String(), tc.stderr) || (tc.stderr == "" && stderr.Len() > 0) {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want %d, %q, %q...", tc.args, code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
		}
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("vetting %s wrote no facts file: %v", unit, err)
	}
}

// TestGoVetEndToEnd builds detlint and runs it under `go vet -vettool` on a
// fixture module, the way CI runs it over this repository: the finding in
// shipped code is reported and fails vet, the test files are not analyzed,
// and every unit the go command ran the tool on got its facts file.
func TestGoVetEndToEnd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	tool := filepath.Join(t.TempDir(), "detlint")
	if out, err := exec.Command(goTool, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module lintcheck\n\ngo 1.22\n",
		"a.go":   "package a\n\nimport \"time\"\n\nfunc Bad() time.Time { return time.Now() }\n",
		"a_test.go": "package a\n\nimport (\n\t\"testing\"\n\t\"time\"\n)\n\n" +
			"func TestBad(t *testing.T) { go func() {}(); _ = time.Now() }\n",
		"x_test.go": "package a_test\n\nimport \"time\"\n\nvar T = time.Now()\n",
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(goTool, "vet", "-work", "-vettool="+tool, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if work := regexp.MustCompile(`(?m)^WORK=(.*)$`).FindSubmatch(out); work != nil {
		t.Cleanup(func() { os.RemoveAll(string(work[1])) })
		cfgs, _ := filepath.Glob(filepath.Join(string(work[1]), "*", "vet.cfg"))
		if len(cfgs) == 0 {
			t.Errorf("go vet -work left no vet.cfg under %s", work[1])
		}
		for _, c := range cfgs {
			if _, err := os.Stat(filepath.Join(filepath.Dir(c), "vet.out")); err != nil {
				t.Errorf("no facts file beside %s: %v", c, err)
			}
		}
	} else {
		t.Errorf("go vet -work printed no WORK= line:\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Errorf("go vet err = %v, want a non-zero exit status", err)
	}
	if !regexp.MustCompile(`a\.go:5:\d+: time\.Now reads the wall clock`).Match(out) {
		t.Errorf("go vet output has no time.Now diagnostic for a.go:\n%s", out)
	}
	if bytes.Contains(out, []byte("_test.go")) {
		t.Errorf("go vet output mentions a test file:\n%s", out)
	}
}
