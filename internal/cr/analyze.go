package cr

import (
	"fmt"
	"slices"

	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// loopInfo is the result of target-program analysis (§2.2): the launches
// and scalar statements of the loop body, the partitions each touches with
// what privilege and fields, and the common launch domain.
type loopInfo struct {
	domain    []geometry.Point
	stmts     []ir.Stmt
	usedParts []*region.Partition
	// partFields lists every field used with a partition, sorted once the
	// loop is analysed.
	partFields map[*region.Partition][]region.FieldID
	// written marks partitions written (read-write or reduce) by any launch.
	written map[*region.Partition]bool
	// reduced maps partitions to the reduce ops applied (at most one op per
	// partition is supported).
	reduced map[*region.Partition]region.ReductionOp
}

// analyzeLoop checks that the loop is a control-replication target and
// gathers its partition-level use information. All analysis is at the
// granularity of tasks, privileges, partitions, and disjointness — never
// task bodies (§2.2).
func analyzeLoop(prog *ir.Program, loop *ir.Loop) (*loopInfo, error) {
	if !ir.ReplicableLoopBody(loop.Body) {
		return nil, fmt.Errorf("cr: loop %q body contains statements control replication cannot transform", loop.Var)
	}
	info := &loopInfo{
		partFields: make(map[*region.Partition][]region.FieldID),
		written:    make(map[*region.Partition]bool),
		reduced:    make(map[*region.Partition]region.ReductionOp),
	}
	for _, s := range loop.Body {
		switch s := s.(type) {
		case *ir.SetScalar:
			info.stmts = append(info.stmts, s)
		case *ir.Launch:
			if err := info.addLaunch(s); err != nil {
				return nil, err
			}
		case *ir.Loop:
			return nil, fmt.Errorf("cr: nested loops are transformed independently; flatten or compile the inner loop")
		default:
			return nil, fmt.Errorf("cr: unsupported statement %T in replicated loop", s)
		}
	}
	if len(info.domain) == 0 {
		return nil, fmt.Errorf("cr: loop %q contains no index launches", loop.Var)
	}
	for _, p := range info.usedParts {
		slices.Sort(info.partFields[p])
	}
	return info, nil
}

func (info *loopInfo) addLaunch(l *ir.Launch) error {
	if len(info.domain) == 0 {
		info.domain = l.Domain
	} else if !slices.Equal(info.domain, l.Domain) {
		return fmt.Errorf("cr: launch %s uses a different domain than earlier launches; control replication shards one common iteration space", l.Task.Name)
	}
	if err := l.CheckIndependent(); err != nil {
		return err
	}
	for ai, a := range l.Args {
		if !a.Identity() {
			return fmt.Errorf("cr: launch %s arg %d still has a non-identity projection after normalization", l.Task.Name, ai)
		}
		param := l.Task.Params[ai]
		if _, ok := info.partFields[a.Part]; !ok {
			info.usedParts = append(info.usedParts, a.Part)
		}
		info.partFields[a.Part] = region.UnionFields(info.partFields[a.Part], param.Fields)
		switch param.Priv {
		case ir.PrivReadWrite:
			info.written[a.Part] = true
		case ir.PrivReduce:
			info.written[a.Part] = true
			if prev, ok := info.reduced[a.Part]; ok && prev != param.Op {
				return fmt.Errorf("cr: partition %s reduced with both %v and %v", a.Part.Name(), prev, param.Op)
			}
			info.reduced[a.Part] = param.Op
		}
	}
	info.stmts = append(info.stmts, l)
	return nil
}
