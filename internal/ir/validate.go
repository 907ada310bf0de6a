package ir

import (
	"fmt"
	"slices"

	"repro/internal/region"
)

// Validate checks program well-formedness: every launch's arguments match
// its task's parameter list, fields exist in the target region's field
// space, launch domains are covered by the argument partitions' color
// spaces (under the declared projections), and loop bodies contain only the
// statement forms control replication admits (§2.2: loops of task calls
// with no loop-carried dependencies except reductions, plus scalar
// statements).
func (p *Program) Validate() error {
	return p.validateStmts(p.Stmts, false)
}

func (p *Program) validateStmts(stmts []Stmt, inLoop bool) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Fill, *FillFunc:
			if inLoop {
				return fmt.Errorf("ir: fill statements are setup-only, not allowed inside loops")
			}
		case *SetScalar:
			// Allowed anywhere.
		case *Loop:
			if s.Trip < 0 {
				return fmt.Errorf("ir: loop %q has negative trip count", s.Var)
			}
			if err := p.validateStmts(s.Body, true); err != nil {
				return err
			}
		case *Launch:
			if err := p.validateLaunch(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ir: unknown statement type %T", s)
		}
	}
	return nil
}

func (p *Program) validateLaunch(l *Launch) error {
	name := l.Label
	if name == "" {
		name = l.Task.Name
	}
	if len(l.Args) != len(l.Task.Params) {
		return fmt.Errorf("ir: launch %s passes %d region args, task declares %d", name, len(l.Args), len(l.Task.Params))
	}
	if len(l.Args) == 0 {
		return fmt.Errorf("ir: launch %s has no region argument", name)
	}
	if c := l.Task.CostArg; c < 0 || c >= len(l.Task.Params) {
		return fmt.Errorf("ir: task %s takes its cost from region argument %d, it declares %d", l.Task.Name, c, len(l.Task.Params))
	}
	if len(l.ScalarArgs) != l.Task.NumScalars {
		return fmt.Errorf("ir: launch %s passes %d scalar args, task declares %d", name, len(l.ScalarArgs), l.Task.NumScalars)
	}
	if len(l.Domain) == 0 {
		return fmt.Errorf("ir: launch %s has an empty domain", name)
	}
	for ai, a := range l.Args {
		param := l.Task.Params[ai]
		if param.Priv == PrivReduce && param.Op == region.ReduceNone {
			return fmt.Errorf("ir: launch %s param %d declares reduce privilege without an operator", name, ai)
		}
		fs, ok := p.FieldSpaces[a.Part.Parent().Root()]
		if !ok {
			return fmt.Errorf("ir: launch %s param %d targets region with no field space", name, ai)
		}
		for fi, f := range param.Fields {
			if int(f) < 0 || int(f) >= fs.NumFields() {
				return fmt.Errorf("ir: launch %s param %d names unknown field %d", name, ai, f)
			}
			if slices.Contains(param.Fields[:fi], f) {
				return fmt.Errorf("ir: launch %s param %d names field %s twice", name, ai, fs.Name(f))
			}
		}
		cs := a.Part.ColorSpace()
		for _, c := range l.Domain {
			pc := c
			if a.Proj != nil {
				pc = a.Proj(c)
			}
			if !cs.Contains(pc) {
				return fmt.Errorf("ir: launch %s param %d: projected color %v outside partition %s's color space", name, ai, pc, a.Part.Name())
			}
		}
	}
	return nil
}

// ReplicableLoopBody reports whether a loop body consists only of the
// statement forms control replication can transform: index launches and
// scalar statements (including nested replicable loops). This is the §2.2
// target-program check; cr.Compile rejects anything else, and
// spmd.CompileAll returns that error.
func ReplicableLoopBody(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *Launch, *SetScalar:
			// fine
		case *Loop:
			if !ReplicableLoopBody(s.Body) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CheckIndependent checks the §2.2 target form for one launch: its tasks
// must be independent. A read-write argument on an aliased partition is
// rejected (reductions are the only aliased writes), and so is any pair of
// arguments with conflicting privileges on a shared field whose subregions
// may overlap across tasks. The one allowed pair is the same disjoint
// partition through the identity projection on both sides: each task then
// sees one subregion through both arguments, which is internally
// sequential. Any other projection onto one partition may reach another
// task's subregion, so the rule holds before NormalizeProjections too.
func (l *Launch) CheckIndependent() error {
	for i, a := range l.Args {
		if l.Task.Params[i].Priv == PrivReadWrite && !a.Part.Disjoint() {
			return fmt.Errorf("ir: launch %s writes aliased partition %s; tasks of one launch must be independent (use a reduction)", l.Task.Name, a.Part.Name())
		}
	}
	for i, ai := range l.Args {
		for j := i + 1; j < len(l.Args); j++ {
			aj, pi, pj := l.Args[j], l.Task.Params[i], l.Task.Params[j]
			if !Conflicts(pi.Priv, pi.Op, pj.Priv, pj.Op) || region.SharedFields(pi.Fields, pj.Fields) == 0 {
				continue
			}
			mayAlias := region.PartitionsMayAlias(ai.Part, aj.Part)
			if ai.Part == aj.Part {
				mayAlias = mayAlias || !ai.Identity() || !aj.Identity()
			}
			if mayAlias {
				return fmt.Errorf("ir: launch %s has conflicting aliased arguments %d and %d", l.Task.Name, i, j)
			}
		}
	}
	return nil
}
