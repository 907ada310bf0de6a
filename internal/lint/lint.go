// Package lint is a small, dependency-free determinism linter for the
// simulator core (internal/realm, internal/rt, internal/spmd). Those
// packages promise bit-identical replay: the discrete-event simulation
// must produce the same schedule for the same inputs, which outlaws wall
// clocks, the global math/rand source, raw goroutines, and iteration
// order leaking out of Go maps.
//
// The package mirrors the go/analysis shape (Analyzer, Pass, Reportf)
// without depending on golang.org/x/tools. It has one entry point,
// VetUnit, which cmd/detlint runs as a `go vet -vettool`: the go command
// hands it one compilation unit at a time with the export data of every
// import, so only the unit itself is typechecked from source. Findings
// are suppressed with a
//
//	//detlint:ignore <reason>
//
// comment on the offending line or the line above; the reason is
// mandatory, and a bare directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one determinism check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the registered analyzers.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, MapRange, Goroutine, CondLoop}
}

// A Pass hands one typechecked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// IgnoreDirective is the suppression comment prefix.
const IgnoreDirective = "//detlint:ignore"

// Allowlist maps package import paths to the analyzer names that do not
// apply there. The native realm backend is the execution engine that real
// goroutines and the wall clock are FOR — flagging every `go` statement
// and time.Now in it would bury real findings under boilerplate ignores —
// while the simulator core (realm, rt, spmd) stays fully locked down: the
// allowlist is per-package, never per-pattern, so adding a package here is
// a reviewed, visible decision. Analyzers not named (maprange) still run.
var Allowlist = map[string]map[string]bool{
	"repro/internal/realm/native": {"wallclock": true, "goroutine": true},
}

// Run applies the analyzers to one typechecked package and returns the
// findings that survive the package Allowlist and //detlint:ignore
// suppression, sorted by position.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	exempt := Allowlist[pkg.Path()]
	for _, a := range analyzers {
		if exempt[a.Name] {
			continue
		}
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		})
	}
	diags = suppress(fset, files, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppress drops diagnostics covered by an ignore directive on the same
// line or the line above, and reports directives missing a reason.
func suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type lineKey struct {
		file string
		line int
	}
	ignored := map[lineKey]bool{}
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, IgnoreDirective)
				if strings.TrimSpace(rest) == "" || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					out = append(out, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Analyzer: "detlint",
						Message:  "ignore directive requires a reason: //detlint:ignore <reason>",
					})
					continue
				}
				p := fset.Position(c.Pos())
				ignored[lineKey{p.Filename, p.Line}] = true
			}
		}
	}
	for _, d := range diags {
		if ignored[lineKey{d.Pos.Filename, d.Pos.Line}] || ignored[lineKey{d.Pos.Filename, d.Pos.Line - 1}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
