package lang

// Pinned front-end behaviour on corrupted sources: for every single-token
// deletion and duplication of figure2Src and testdata/heat.cr,
// testdata/mutant_errors_golden.txt holds the first line of Compile's error,
// or ir.Dump of the program when the mutant compiles. It was recorded with
// the parser that stopped at its first error, so it is what keeps each first
// error byte-identical now that the parser reports one error per broken
// declaration. Regenerate (only when a message change is intended) with
//
//	go test ./internal/lang/ -run TestMutantErrorsGolden -update

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ir"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/mutant_errors_golden.txt")

const mutantGoldenPath = "testdata/mutant_errors_golden.txt"

// heatSrc reads the repository's example program.
func heatSrc(t testing.TB) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/heat.cr")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// mutant is one corrupted source and how it was made.
type mutant struct {
	label, src string
}

// tokenMutants returns, for each token of src in order, the source with
// that token deleted and the source with it duplicated. Tokens keep their
// lines (not their columns): each is followed by one space.
func tokenMutants(t testing.TB, src string) []mutant {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(skip, dup int) string {
		var b strings.Builder
		line := 1
		for i, tk := range toks {
			if tk.kind == tEOF || i == skip {
				continue
			}
			for line < tk.line {
				b.WriteByte('\n')
				line++
			}
			b.WriteString(tk.text)
			b.WriteByte(' ')
			if i == dup {
				b.WriteString(tk.text)
				b.WriteByte(' ')
			}
		}
		return b.String()
	}
	var out []mutant
	for i := 0; i < len(toks)-1; i++ {
		out = append(out,
			mutant{fmt.Sprintf("delete %d", i), rebuild(i, -1)},
			mutant{fmt.Sprintf("duplicate %d", i), rebuild(-1, i)})
	}
	return out
}

// TestMutantErrorsGolden replays the pinned outcome of every mutant.
func TestMutantErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range []struct{ name, src string }{{"figure2", figure2Src}, {"heat", heatSrc(t)}} {
		for _, m := range tokenMutants(t, s.src) {
			fmt.Fprintf(&b, "== %s %s\n", s.name, m.label)
			prog, err := Compile(m.src)
			if err != nil {
				first, _, _ := strings.Cut(err.Error(), "\n")
				b.WriteString(first + "\n")
				continue
			}
			b.WriteString(ir.Dump(prog))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(mutantGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(mutantGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", mutantGoldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", mutantGoldenPath, len(gl), len(wl))
}
