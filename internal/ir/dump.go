package ir

import (
	"fmt"
	"strings"

	"repro/internal/region"
)

// Dump renders the program in a Regent-like surface syntax for diagnostics
// and compiler-driver output. It is purely informational: task bodies are
// opaque, so only declarations, privileges, and launch structure appear.
func Dump(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)

	for _, root := range p.Roots() {
		fs := p.FieldSpaces[root]
		var fields []string
		for _, f := range fs.Fields() {
			fields = append(fields, fs.Name(f))
		}
		fmt.Fprintf(&b, "  region %s(%d elements) fields {%s}\n", root.Name(), root.Volume(), strings.Join(fields, ", "))
		for _, part := range root.Partitions() {
			dumpPartition(&b, p, part, 4)
		}
	}

	// Resolve parameter field names through each task's first launch site.
	taskRegions := map[*TaskDecl][]*region.Region{}
	collectLaunches(p.Stmts, func(l *Launch) {
		if _, ok := taskRegions[l.Task]; ok {
			return
		}
		var roots []*region.Region
		for _, a := range l.Args {
			roots = append(roots, a.Part.Parent().Root())
		}
		taskRegions[l.Task] = roots
	})
	seen := map[*TaskDecl]bool{}
	collectTasks(p.Stmts, func(t *TaskDecl) {
		if seen[t] {
			return
		}
		seen[t] = true
		roots := taskRegions[t]
		var params []string
		argIdx := 0
		for _, prm := range t.Params {
			fs := ""
			if len(prm.Fields) > 0 {
				var names []string
				for _, f := range prm.Fields {
					name := fmt.Sprintf("f%d", f)
					if argIdx < len(roots) {
						if fspace, ok := p.FieldSpaces[roots[argIdx]]; ok && int(f) < fspace.NumFields() {
							name = fspace.Name(f)
						}
					}
					names = append(names, name)
				}
				fs = "." + strings.Join(names, ",")
			}
			priv := prm.Priv.String()
			if prm.Priv == PrivReduce {
				priv = fmt.Sprintf("reduces(%v)", prm.Op)
			}
			params = append(params, fmt.Sprintf("%s%s: %s", prm.Name, fs, priv))
			argIdx++
		}
		fmt.Fprintf(&b, "  task %s(%s)\n", t.Name, strings.Join(params, "; "))
	})

	dumpStmts(&b, p, p.Stmts, 2)
	return b.String()
}

func dumpPartition(b *strings.Builder, p *Program, part *region.Partition, indent int) {
	kind := "aliased"
	if part.Disjoint() {
		kind = "disjoint"
	}
	if part.Complete() {
		kind += " complete"
	}
	fmt.Fprintf(b, "%spartition %s (%s, %d colors)\n", strings.Repeat(" ", indent), part.Name(), kind, len(part.Colors()))
	// Recurse into subregion partitions (hierarchical trees, §4.5).
	for _, c := range part.Colors() {
		sub := part.Sub(c)
		for _, inner := range sub.Partitions() {
			fmt.Fprintf(b, "%ssubregion %s:\n", strings.Repeat(" ", indent+2), sub.Name())
			dumpPartition(b, p, inner, indent+4)
		}
	}
}

func collectLaunches(stmts []Stmt, fn func(*Launch)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Launch:
			fn(s)
		case *Loop:
			collectLaunches(s.Body, fn)
		}
	}
}

func collectTasks(stmts []Stmt, fn func(*TaskDecl)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Launch:
			fn(s.Task)
		case *Loop:
			collectTasks(s.Body, fn)
		}
	}
}

// fieldName resolves a field id to its name through the region's root.
func fieldName(p *Program, r *region.Region, f region.FieldID) string {
	if fs, ok := p.FieldSpaces[r.Root()]; ok && int(f) < fs.NumFields() {
		return fs.Name(f)
	}
	return fmt.Sprintf("f%d", f)
}

func dumpStmts(b *strings.Builder, p *Program, stmts []Stmt, indent int) {
	pad := strings.Repeat(" ", indent)
	for _, s := range stmts {
		switch s := s.(type) {
		case *Fill:
			fmt.Fprintf(b, "%sfill %s.%s = %g\n", pad, s.Target.Name(), fieldName(p, s.Target, s.Field), s.Value)
		case *FillFunc:
			fmt.Fprintf(b, "%sfill %s.%s = fn(point)\n", pad, s.Target.Name(), fieldName(p, s.Target, s.Field))
		case *SetScalar:
			fmt.Fprintf(b, "%svar %s = ...\n", pad, s.Name)
		case *Loop:
			fmt.Fprintf(b, "%sfor %s = 0, %d do\n", pad, s.Var, s.Trip)
			dumpStmts(b, p, s.Body, indent+2)
			fmt.Fprintf(b, "%send\n", pad)
		case *Launch:
			var args []string
			for _, a := range s.Args {
				name := a.Part.Name() + "[i]"
				if !a.Identity() {
					name = fmt.Sprintf("%s[%s(i)]", a.Part.Name(), a.ProjName)
				}
				args = append(args, name)
			}
			suffix := ""
			if s.Reduce != nil {
				suffix = fmt.Sprintf(" -> %s %s", s.Reduce.Op, s.Reduce.Into)
			}
			fmt.Fprintf(b, "%sfor i in %d launch %s(%s)%s\n", pad, len(s.Domain), s.Task.Name, strings.Join(args, ", "), suffix)
		}
	}
}
