package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream. A syntax
// error is raised in one place, fail, which records it and unwinds to the
// top-level declaration being parsed; decl then resumes at the next
// declaration, so a source reports one error per broken declaration.
type parser struct {
	toks []token
	pos  int
	errs []error
}

// bailout is the panic value fail unwinds with. Only decl recovers it.
type bailout struct{}

// declStart holds the tokens that can begin a top-level declaration.
var declStart = map[string]bool{
	"region": true, "partition": true, "task": true, "fill": true,
	"var": true, "for": true, "launch": true, "reduce": true,
}

func parse(src string) (*astProgram, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := p.program()
	return prog, errors.Join(p.errs...)
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes the current token and returns it; it never moves past EOF.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

// fail records a syntax error at t and abandons the current declaration.
func (p *parser) fail(t token, format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf("lang: line %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...)))
	panic(bailout{})
}

// decl parses one top-level declaration with fn. After a syntax error it
// skips to the first token that can start a declaration, lies at or past
// the error and past the declaration's first token (so parsing always
// moves on), and is outside any brace opened since the declaration began;
// or to EOF. Any panic other than a bailout is a bug and propagates.
func (p *parser) decl(fn func()) {
	start := p.pos
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(bailout); !ok {
			panic(r)
		}
		failed, depth := p.pos, 0
		for p.pos = start; ; p.pos++ {
			t := p.cur()
			if t.kind == tEOF || p.pos >= failed && p.pos > start && depth <= 0 && declStart[t.text] {
				return
			}
			switch t.text {
			case "{":
				depth++
			case "}":
				depth--
			}
		}
	}()
	fn()
}

// accept consumes the token if it matches the punctuation/keyword text.
func (p *parser) accept(text string) bool {
	if p.cur().text == text && p.cur().kind != tEOF {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) {
	if !p.accept(text) {
		p.fail(p.cur(), "expected %q, found %s", text, p.cur())
	}
}

func (p *parser) ident() string {
	t := p.cur()
	if t.kind != tIdent {
		p.fail(t, "expected identifier, found %s", t)
	}
	p.pos++
	return t.text
}

func (p *parser) intLit() int64 {
	return literal(p, "integer", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
}

func (p *parser) numLit() float64 {
	return literal(p, "number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// literal parses an optionally negated number token with conv; what names
// the kind of number in errors.
func literal[T int64 | float64](p *parser, what string, conv func(string) (T, error)) T {
	neg := p.accept("-")
	t := p.cur()
	if t.kind != tNumber {
		p.fail(t, "expected %s, found %s", what, t)
	}
	v, err := conv(t.text)
	if err != nil {
		p.fail(t, "bad %s %q", what, t.text)
	}
	p.pos++
	if neg {
		v = -v
	}
	return v
}

// commas parses item, then item again after each ",".
func (p *parser) commas(item func()) {
	for item(); p.accept(","); item() {
	}
}

// names parses open IDENT ("," IDENT)* close.
func (p *parser) names(open, close string) []string {
	p.expect(open)
	var out []string
	p.commas(func() { out = append(out, p.ident()) })
	p.expect(close)
	return out
}

// reduceOp parses a reduction operator; msg is the error if there is none.
func (p *parser) reduceOp(msg string) string {
	t := p.next()
	if t.text != "+" && t.text != "min" && t.text != "max" {
		p.fail(t, "%s", msg)
	}
	return t.text
}

func (p *parser) program() *astProgram {
	prog := &astProgram{}
	p.decl(func() {
		p.expect("program")
		prog.name = p.ident()
	})
	for p.cur().kind != tEOF {
		p.decl(func() {
			switch p.cur().text {
			case "region":
				prog.regions = append(prog.regions, p.regionDecl())
			case "partition":
				prog.parts = append(prog.parts, p.partitionDecl())
			case "task":
				prog.tasks = append(prog.tasks, p.taskDecl())
			default:
				prog.stmts = append(prog.stmts, p.mainStmt())
			}
		})
	}
	return prog
}

// region NAME [lo..hi] fields { f, g }
func (p *parser) regionDecl() *astRegion {
	r := &astRegion{line: p.next().line, name: p.ident()}
	p.expect("[")
	r.lo = p.intLit()
	p.expect("..")
	r.hi = p.intLit()
	p.expect("]")
	p.expect("fields")
	r.fields = p.names("{", "}")
	return r
}

// partition NAME = block(R, n) | image(R, P, shift(k)) | image(R, P, window(a, b))
func (p *parser) partitionDecl() *astPartition {
	pd := &astPartition{line: p.next().line, name: p.ident()}
	p.expect("=")
	kindTok := p.cur()
	pd.kind = p.ident()
	p.expect("(")
	switch pd.kind {
	case "block":
		pd.region = p.ident()
		p.expect(",")
		pd.n = p.intLit()
	case "image":
		pd.region = p.ident()
		p.expect(",")
		pd.srcPd = p.ident()
		p.expect(",")
		pd.fn.kind = p.ident()
		p.expect("(")
		switch pd.fn.kind {
		case "shift":
			pd.fn.a = p.intLit()
		case "window", "ring":
			pd.fn.a = p.intLit()
			p.expect(",")
			pd.fn.b = p.intLit()
		default:
			p.fail(kindTok, "unknown functor %q (have shift, window, ring)", pd.fn.kind)
		}
		p.expect(")")
	default:
		p.fail(kindTok, "unknown partition operator %q (have block, image)", pd.kind)
	}
	p.expect(")")
	return pd
}

// task NAME(a: region writes(f) reads(g), s: scalar) { ... }
func (p *parser) taskDecl() *astTask {
	tk := &astTask{line: p.next().line, name: p.ident()}
	p.expect("(")
	if !p.accept(")") {
		p.commas(func() { tk.params = append(tk.params, p.param()) })
		p.expect(")")
	}
	tk.body = p.kernelBlock()
	return tk
}

func (p *parser) param() astParam {
	prm := astParam{line: p.cur().line, name: p.ident()}
	p.expect(":")
	switch k := p.ident(); k {
	case "scalar":
		prm.isScalar = true
		return prm
	case "region":
	default:
		p.fail(p.cur(), "parameter kind must be region or scalar, found %q", k)
	}
	for {
		switch t := p.cur(); t.text {
		case "reads":
			p.pos++
			prm.reads = append(prm.reads, p.names("(", ")")...)
		case "writes":
			p.pos++
			prm.writes = append(prm.writes, p.names("(", ")")...)
		case "reduces":
			p.pos++
			prm.reduceOp = p.reduceOp("reduction operator must be +, min, or max")
			prm.reduces = append(prm.reduces, p.names("(", ")")...)
		default:
			if len(prm.reads)+len(prm.writes)+len(prm.reduces) == 0 {
				p.fail(t, "region parameter needs at least one privilege")
			}
			return prm
		}
	}
}

func (p *parser) kernelBlock() []astKStmt {
	p.expect("{")
	var out []astKStmt
	for !p.accept("}") {
		out = append(out, p.kernelStmt())
	}
	return out
}

func (p *parser) kernelStmt() astKStmt {
	t := p.cur()
	switch t.text {
	case "for":
		p.pos++
		s := &astKFor{line: t.line, v: p.ident()}
		p.expect("in")
		s.over = p.ident()
		s.body = p.kernelBlock()
		return s
	case "result":
		p.pos++
		s := &astKResult{line: t.line}
		switch opTok := p.next(); opTok.text {
		case "+=":
			s.op = "+"
		case "min", "max":
			s.op = opTok.text
			p.expect("=")
		default:
			p.fail(opTok, "result accumulation must be +=, min=, or max=")
		}
		s.expr = p.parseExpr()
		return s
	}
	s := &astKAssign{line: t.line, dst: p.access()}
	opTok := p.next()
	if opTok.text != "=" && opTok.text != "+=" {
		p.fail(opTok, "expected = or += after access")
	}
	s.op = opTok.text
	s.expr = p.parseExpr()
	return s
}

// access := IDENT . IDENT [ index ]
func (p *parser) access() astAccess {
	a := astAccess{line: p.cur().line, param: p.ident()}
	p.expect(".")
	a.field = p.ident()
	p.expect("[")
	a.idx = p.index()
	p.expect("]")
	return a
}

// index := IDENT (("+"|"-") INT)? ("mod" INT)?
func (p *parser) index() astIndex {
	idx := astIndex{v: p.ident()}
	if p.accept("+") {
		idx.off = p.intLit()
	} else if p.accept("-") {
		idx.off = -p.intLit()
	}
	if p.accept("mod") {
		modTok := p.cur()
		if idx.mod = p.intLit(); idx.mod <= 0 {
			p.fail(modTok, "mod must be positive")
		}
	}
	return idx
}

// Expression grammar: expr := term (("+"|"-") term)*; term := factor
// (("*"|"/") factor)*; factor := NUMBER | access | IDENT | (expr) | -factor.
func (p *parser) parseExpr() astExpr { return p.binary("+-", p.parseTerm) }
func (p *parser) parseTerm() astExpr { return p.binary("*/", p.parseFactor) }

// binary parses operand (op operand)*, left-associative, for the
// one-character operators in ops.
func (p *parser) binary(ops string, operand func() astExpr) astExpr {
	l := operand()
	for t := p.cur(); len(t.text) == 1 && strings.Contains(ops, t.text); t = p.cur() {
		p.pos++
		l = astBin{op: t.text[0], l: l, r: operand()}
	}
	return l
}

func (p *parser) parseFactor() astExpr {
	t := p.cur()
	switch {
	case t.text == "(":
		p.pos++
		e := p.parseExpr()
		p.expect(")")
		return e
	case t.text == "-":
		p.pos++
		return astNeg{e: p.parseFactor()}
	case t.kind == tNumber:
		return astNum{v: p.numLit()}
	case t.kind == tIdent && p.toks[p.pos+1].text == ".":
		return astAcc{a: p.access()}
	case t.kind == tIdent:
		p.pos++
		return astRef{name: t.text, line: t.line}
	}
	p.fail(t, "expected expression, found %s", t)
	return nil
}

// Main-level statements.
func (p *parser) mainStmt() astStmt {
	t := p.cur()
	switch t.text {
	case "fill":
		p.pos++
		s := &astFill{line: t.line, region: p.ident()}
		p.expect(".")
		s.field = p.ident()
		p.expect("=")
		if s.idx = p.accept("idx"); !s.idx {
			s.value = p.numLit()
		}
		return s
	case "var":
		p.pos++
		s := &astVar{line: t.line, name: p.ident()}
		p.expect("=")
		s.value = p.numLit()
		return s
	case "for":
		p.pos++
		s := &astLoop{line: t.line, v: p.ident()}
		p.expect("=")
		s.lo = p.intLit()
		p.expect(",")
		s.hi = p.intLit()
		p.expect("{")
		for !p.accept("}") {
			s.body = append(s.body, p.mainStmt())
		}
		return s
	case "launch":
		return p.launchStmt()
	case "reduce":
		p.pos++
		op := p.reduceOp("reduce operator must be +, min, or max")
		into := p.ident()
		p.expect("=")
		if p.cur().text != "launch" {
			p.fail(p.cur(), "expected launch after reduce %s %s =", op, into)
		}
		l := p.launchStmt()
		l.reduceOp, l.reduceInto, l.line = op, into, t.line
		return l
	}
	p.fail(t, "expected statement, found %s", t)
	return nil
}

// launch TASK(P[i], Q[i]; s1, 2.0)
func (p *parser) launchStmt() *astLaunch {
	l := &astLaunch{line: p.next().line, task: p.ident()}
	p.expect("(")
	for p.cur().text != ")" && p.cur().text != ";" {
		l.args = append(l.args, p.ident())
		p.expect("[")
		p.expect("i")
		p.expect("]")
		if !p.accept(",") {
			break
		}
	}
	if p.accept(";") {
		p.commas(func() {
			if t := p.cur(); t.kind == tNumber || t.text == "-" {
				l.scalarArgs = append(l.scalarArgs, astNum{v: p.numLit()})
			} else {
				l.scalarArgs = append(l.scalarArgs, astRef{name: p.ident(), line: t.line})
			}
		})
	}
	p.expect(")")
	return l
}
