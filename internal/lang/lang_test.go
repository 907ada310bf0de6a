package lang

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
)

// figure2Src is the paper's Figure 2, written in the textual frontend.
const figure2Src = `
program figure2

region A[0..23] fields { val }
region B[0..23] fields { val }

partition PA = block(A, 4)
partition PB = block(B, 4)
partition QB = image(B, PB, shift(3))

task TF(b: region writes(val) reads(val), a: region reads(val)) {
  for p in b { b.val[p] = a.val[p] + 1 }   # B[i] = F(A[i])
}

task TG(a: region writes(val) reads(val), b: region reads(val)) {
  for p in a { a.val[p] = 2 * b.val[p + 3 mod 24] }   # A[j] = G(B[h(j)])
}

fill A.val = idx
fill B.val = 0

for t = 0, 3 {
  launch TF(PB[i], PA[i])
  launch TG(PA[i], QB[i])
}
`

func TestLexer(t *testing.T) {
	toks, err := lex("region A[0..63] { x += 1.5 } # comment\nfoo")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"region", "A", "[", "0", "..", "63", "]", "{", "x", "+=", "1.5", "}", "foo"}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if toks[len(toks)-2].line != 2 {
		t.Errorf("line tracking: foo at line %d", toks[len(toks)-2].line)
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := lex("region @"); err == nil {
		t.Error("expected lex error")
	}
}

func TestCompileFigure2EndToEnd(t *testing.T) {
	prog, err := Compile(figure2Src)
	if err != nil {
		t.Fatal(err)
	}

	// The DSL program must agree with the Go-built fixture bitwise (same
	// shapes, same kernels, same initialization).
	fix := progtest.NewFigure2(24, 4, 3)
	want := ir.ExecSequential(fix.Prog)
	got := ir.ExecSequential(prog)

	for _, r := range prog.Tree.Regions() {
		if r.Parent() != nil {
			continue
		}
		var fixR = fix.A
		if r.Name() == "B" {
			fixR = fix.B
		} else if r.Name() != "A" {
			continue
		}
		fs := prog.FieldSpaces[r]
		val := fs.Field("val")
		r.IndexSpace().Each(func(p geometry.Point) bool {
			g := got.Stores[r].Get(val, p)
			w := want.Stores[fixR].Get(fix.Val, p)
			if g != w {
				t.Fatalf("%s[%v] = %v, want %v", r.Name(), p, g, w)
			}
			return true
		})
	}
}

func TestCompiledProgramControlReplicates(t *testing.T) {
	prog, err := Compile(figure2Src)
	if err != nil {
		t.Fatal(err)
	}
	seq := ir.ExecSequential(prog)

	// Under control replication and on the implicit runtime, bitwise.
	for _, run := range []func(*ir.Program, bench.Config) (*bench.Result, error){bench.RunCR, bench.RunImplicit} {
		prog2, err := Compile(figure2Src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(prog2, bench.Config{Nodes: 4})
		if err == nil {
			err = progtest.Diff(seq, res.SeqResult)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

const reduceSrc = `
program reducer

region R[0..15] fields { x, acc }

partition PR = block(R, 4)
partition IMG = image(R, PR, shift(1))

task contrib(g: region reduces + (acc), own: region reads(x)) {
  for p in own {
    g.acc[p + 1 mod 16] += own.x[p] * 0.5
  }
}

task total(r: region reads(acc)) {
  for p in r { result += r.acc[p] }
}

fill R.x = idx
fill R.acc = 0

for t = 0, 2 {
  launch contrib(IMG[i], PR[i])
  reduce + sum = launch total(PR[i])
}
`

func TestCompileReductionsAndScalarFold(t *testing.T) {
	prog, err := Compile(reduceSrc)
	if err != nil {
		t.Fatal(err)
	}
	seq := ir.ExecSequential(prog)
	// Each element p accumulates x[p-1]*0.5 per iteration; sum over all =
	// 2 * sum(x)*0.5 = sum(0..15) = 120... per iteration sum(x)*0.5 = 60,
	// after two iterations acc totals 120.
	if got := seq.Env["sum"]; got != 120 {
		t.Fatalf("sum = %v, want 120", got)
	}

	// And under control replication, bitwise.
	prog2, err := Compile(reduceSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bench.RunCR(prog2, bench.Config{Nodes: 4})
	if err == nil {
		err = progtest.Diff(seq, res.SeqResult)
	}
	if err != nil {
		t.Fatal(err)
	}
}

const scalarArgSrc = `
program scaled

region R[0..7] fields { x }
partition PR = block(R, 2)

task scale(r: region writes(x) reads(x), k: scalar) {
  for p in r { r.x[p] = r.x[p] * k + 1 }
}

fill R.x = idx
var factor = 2

for t = 0, 2 {
  launch scale(PR[i]; factor)
}
`

func TestScalarArguments(t *testing.T) {
	prog, err := Compile(scalarArgSrc)
	if err != nil {
		t.Fatal(err)
	}
	seq := ir.ExecSequential(prog)
	// x0 = i; x1 = 2i+1; x2 = 2(2i+1)+1 = 4i+3.
	root := prog.Tree.Regions()[0]
	x := prog.FieldSpaces[root].Field("x")
	for i := int64(0); i < 8; i++ {
		if got := seq.Stores[root].Get(x, geometry.Pt1(i)); got != float64(4*i+3) {
			t.Fatalf("x[%d] = %v, want %d", i, got, 4*i+3)
		}
	}
}

func TestWindowFunctor(t *testing.T) {
	src := `
program halo
region R[0..19] fields { u, v }
partition PR = block(R, 4)
partition H = image(R, PR, window(-1, 1))

task smear(out: region writes(v), in: region reads(u)) {
  for p in out { out.v[p] = in.u[p] }
}
fill R.u = idx
fill R.v = 0
for t = 0, 1 {
  launch smear(PR[i], H[i])
}
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// H[i] must be PR[i] widened by one on each side, clipped.
	for _, pt := range prog.Tree.Partitions() {
		if pt.Name() != "H" {
			continue
		}
		if got := pt.Sub1(0).IndexSpace().Bounds(); got != geometry.R1(0, 5) {
			t.Errorf("H[0] = %v, want [0..5]", got)
		}
		if got := pt.Sub1(2).IndexSpace().Bounds(); got != geometry.R1(9, 15) {
			t.Errorf("H[2] = %v, want [9..15]", got)
		}
		if pt.Disjoint() {
			t.Error("window image should be aliased")
		}
	}
	// The program must also execute.
	ir.ExecSequential(prog)
}

const nestedSrc = `
program nested

region A[0..7] fields { x }
region B[0..7] fields { y }
partition PA = block(A, 2)
partition PB = block(B, 2)

task pairs(a: region writes(x) reads(x), b: region reads(y)) {
  for p in a {
    for q in b { a.x[p] = a.x[p] + b.y[q] * p }
    a.x[p] = a.x[p] + p
  }
}

fill A.x = 0
fill B.y = idx

launch pairs(PA[i], PB[i])
`

// TestNestedKernelLoops: loop variables live in slots indexed by nesting
// depth; an inner loop must not disturb the outer variable, and the outer
// variable stays readable after the inner loop ends.
func TestNestedKernelLoops(t *testing.T) {
	prog, err := Compile(nestedSrc)
	if err != nil {
		t.Fatal(err)
	}
	seq := ir.ExecSequential(prog)
	root := prog.Tree.Regions()[0]
	x := prog.FieldSpaces[root].Field("x")
	for p := int64(0); p < 8; p++ {
		blockSum := int64(0 + 1 + 2 + 3) // Σ y over PB[0]
		if p >= 4 {
			blockSum = 4 + 5 + 6 + 7
		}
		if got, want := seq.Stores[root].Get(x, geometry.Pt1(p)), float64(blockSum*p+p); got != want {
			t.Fatalf("x[%d] = %v, want %v", p, got, want)
		}
	}
}

// compileErrorCases are sources Compile must reject, each with a fragment
// of the error it must report.
var compileErrorCases = []struct {
	name, src, want string
}{
	{"unknown region", `program p
partition P = block(Z, 2)`, `unknown region "Z"`},
	{"unknown field", `program p
region R[0..3] fields { x }
task t(r: region reads(y)) { }
launch t(PR[i])`, `unknown partition "PR"`},
	{"bad field in task", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(y)) { }
launch t(PR[i])`, `has no field "y"`},
	{"write without privilege", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x)) { for p in r { r.x[p] = 1 } }
launch t(PR[i])`, `line 4: parameter "r" has no write privilege on field "x"`},
	{"read without privilege", `program p
region R[0..3] fields { x, y }
partition PR = block(R, 2)
task t(r: region writes(x)) { for p in r { r.x[p] = r.y[p] } }
launch t(PR[i])`, `line 4: parameter "r" has no read privilege on field "y"`},
	{"reduce without privilege", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x)) { for p in r { r.x[p] += 1 } }
launch t(PR[i])`, `line 4: parameter "r" has no reduce or write privilege on field "x"`},
	{"shadowed loop variable", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region writes(x)) { for p in r { for p in r { r.x[p] = 1 } } }
launch t(PR[i])`, `line 4: loop variable "p" shadows an outer loop variable`},
	{"arg count", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x), s: region reads(x)) { }
launch t(PR[i])`, "takes 2 region arguments"},
	{"unknown scalar", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x), k: scalar) { }
launch t(PR[i]; zig)`, `unknown scalar "zig"`},
	{"index not in scope", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region writes(x)) { for p in r { r.x[q] = 1 } }
launch t(PR[i])`, `"q" is not a loop variable`},
	{"mixed privileges", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x) reduces + (x)) { }
launch t(PR[i])`, "mixes reduces"},
	{"nonzero loop start", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x)) { }
for t = 1, 3 { launch t(PR[i]) }`, "must start at 0"},
	{"bad functor", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
partition Q = image(R, PR, twist(1))`, "unknown functor"},
	{"parse error", `program p region`, "expected identifier"},
	{"non-positive modulus", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region writes(x)) { for p in r { r.x[p mod 0] = 1 } }
launch t(PR[i])`, "line 4:54: mod must be positive"},
	{"negative trip count", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x)) { }
for t = 0, -5 { launch t(PR[i]) }`, `line 5: loop "t" has negative trip count`},
	{"fill inside a loop", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x)) { }
for t = 0, 3 {
  fill R.x = 1
  launch t(PR[i])
}`, "line 6: fill statements are setup-only, not allowed inside loops"},
	{"duplicate parameter", `program p
region R[0..3] fields { x }
partition PR = block(R, 2)
task t(r: region reads(x),
       r: region reads(x)) { }
launch t(PR[i], PR[i])`, `line 5: duplicate parameter "r" in task "t"`},
	{"field named twice", `program p
region R[0..3] fields { v, w }
partition PR = block(R, 2)
task add(t: region reduces +(v, v),
         s: region reads(w)) { }
launch add(PR[i], PR[i])`, `line 4: parameter "t" names field v twice`},
	{"oversized region", `program p
region R[0..3] fields { x }
region T[0..9223372036854775807] fields { x }
partition PT = block(T, 2)`, `line 3: region "T" has more elements than an int64 can count`},
}

// TestCompileErrors: every rejection names its cause and carries a line.
func TestCompileErrors(t *testing.T) {
	for _, c := range compileErrorCases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
		if !strings.HasPrefix(err.Error(), "lang: line ") {
			t.Errorf("%s: error %q carries no line", c.name, err)
		}
	}
}

// TestLaunchWithoutRegionArgumentRejected: a launch takes its domain from
// its first region argument, so a task of scalars only cannot be launched;
// the front end says so at the launch's line instead of indexing an empty
// argument list.
func TestLaunchWithoutRegionArgumentRejected(t *testing.T) {
	_, err := Compile(`program p
var h = 2
task bump(x: scalar) { result += x }
reduce + total = launch bump(; h)`)
	const want = `line 4: launch of task "bump" has no region argument to take its domain from`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v does not contain %q", err, want)
	}
}

func TestInconsistentRelaunchRejected(t *testing.T) {
	src := `
program p
region R[0..7] fields { x }
region S[0..7] fields { y }
partition PR = block(R, 2)
partition PS = block(S, 2)
task t(r: region reads(x)) { }
launch t(PR[i])
launch t(PS[i])
`
	_, err := Compile(src)
	if err == nil || !strings.Contains(err.Error(), "no field") {
		t.Errorf("expected field-resolution error for inconsistent relaunch, got %v", err)
	}
}

func TestRingFunctor(t *testing.T) {
	src := `
program ring
region R[0..15] fields { u }
partition PR = block(R, 4)
partition H = image(R, PR, ring(-1, 1))
task nop(r: region reads(u)) { }
fill R.u = 0
for t = 0, 1 { launch nop(H[i]) }
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range prog.Tree.Partitions() {
		if pt.Name() != "H" {
			continue
		}
		// H[0] wraps: {15, 0..4}.
		h0 := pt.Sub1(0).IndexSpace()
		if !h0.Contains(geometry.Pt1(15)) || !h0.Contains(geometry.Pt1(4)) || h0.Contains(geometry.Pt1(5)) {
			t.Errorf("H[0] = %v", h0)
		}
		if h0.Volume() != 6 {
			t.Errorf("H[0] volume = %d, want 6", h0.Volume())
		}
	}
}

// TestParserRobustnessMutations feeds systematically corrupted sources to
// the compiler: every single-token deletion and duplication of the
// figure-2 program must produce either a clean compile or an error — never
// a panic.
func TestParserRobustnessMutations(t *testing.T) {
	tryCompile := func(src string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("compiler panicked on mutated input: %v\nsource:\n%s", r, src)
			}
		}()
		_, _ = Compile(src)
	}
	for _, m := range tokenMutants(t, figure2Src) {
		tryCompile(m.src)
	}
}
