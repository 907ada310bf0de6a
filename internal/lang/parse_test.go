package lang

import (
	"strings"
	"testing"
)

// brokenSrcs are sources with several broken top-level declarations, each
// with the errors Compile must report: one per broken declaration, in
// source order, and none for the declarations between them.
var brokenSrcs = []struct {
	name, src string
	want      []string
}{
	{"region, task body, main loop", `program p
region R[0..7] fields { x y }
partition PR = block(R, 2)
task t(r: region writes(x)) {
  for p in r { r.x[p] = * 2 }
}
fill R.x = idx
for s = 0, 3 {
  launch t(PR[i] PR[i])
}
`, []string{
		`lang: line 2:27: expected "}", found "y"`,
		`lang: line 5:25: expected expression, found "*"`,
		`lang: line 9:18: expected ")", found "PR"`,
	}},
	{"header, parameter, end of input", `program 7
region R[0..7] fields { x }
partition PR = block(R, 2)
task t(r: region writes(x), k: scalr) { for p in r { r.x[p] = k } }
task u(r: region reads(x)) { for p in r { result += r.x[p] } }
reduce + total = launch u(PR[i]
`, []string{
		`lang: line 1:9: expected identifier, found "7"`,
		`lang: line 4:37: parameter kind must be region or scalar, found "scalr"`,
		`lang: line 7:1: expected ")", found end of input`,
	}},
	{"stray brace, operator, reduce in a loop", `program p
region R[0..7] fields { x }
}
partition PR = blok(R, 2)
for s = 0, 3 {
  reduce * total = launch u(PR[i])
  launch u(PR[i])
}
var k =
`, []string{
		`lang: line 3:1: expected statement, found "}"`,
		`lang: line 4:16: unknown partition operator "blok" (have block, image)`,
		`lang: line 6:10: reduce operator must be +, min, or max`,
		`lang: line 10:1: expected number, found end of input`,
	}},
}

func TestParseReportsEveryError(t *testing.T) {
	for _, c := range brokenSrcs {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("%s: compiled", c.name)
			continue
		}
		if got, want := err.Error(), strings.Join(c.want, "\n"); got != want {
			t.Errorf("%s: errors\n%s\nwant\n%s", c.name, got, want)
		}
	}
}

// TestDeclRecoversOnlyBailout: decl turns a syntax error into a recorded
// error and a resumed parse, and lets every other panic through.
func TestDeclRecoversOnlyBailout(t *testing.T) {
	p := &parser{toks: []token{{kind: tIdent, text: "x"}, {kind: tIdent, text: "launch"}, {kind: tEOF}}}
	p.decl(func() { p.fail(p.cur(), "broken") })
	if len(p.errs) != 1 || p.cur().text != "launch" {
		t.Fatalf("after a bailout: errs %v, resumed at %s", p.errs, p.cur())
	}
	defer func() {
		if r := recover(); r != "parser bug" {
			t.Fatalf("recovered %v, want the parser bug", r)
		}
	}()
	p.decl(func() { panic("parser bug") })
	t.Fatal("decl swallowed a panic that is not a bailout")
}
