package cr

import (
	"repro/internal/ir"
	"repro/internal/region"
)

// insertCopies performs the data-replication transformation (§3.1): with
// every partition now owning its storage, a write to a partition must be
// followed by copies to every aliased partition that is also used in the
// loop (Figure 4a, line 9). Reductions instead produce reduction copies
// that fold the launch's temporary reduction instances into every aliased
// used partition and into the reduced partition's own instances (§4.3).
//
// Copies are placed immediately after the writing statement; placeCopies
// then improves the placement (§3.2). The aliasing decisions use only the
// static region-tree test (region.PartitionsMayAlias); the dynamic
// intersections refine each surviving copy to its non-empty pairs later.
func insertCopies(info *loopInfo) ([]BodyOp, int) {
	var body []BodyOp
	nextID := 0
	inserted := 0

	emitCopy := func(cp *CopyOp) {
		cp.ID = nextID
		nextID++
		inserted++
		body = append(body, BodyOp{Copy: cp})
	}

	for _, s := range info.stmts {
		switch s := s.(type) {
		case *ir.SetScalar:
			body = append(body, BodyOp{Set: s})
		case *ir.Launch:
			body = append(body, BodyOp{Launch: s})
			for ai, a := range s.Args {
				param := s.Task.Params[ai]
				switch param.Priv {
				case ir.PrivReadWrite:
					for _, q := range info.usedParts {
						if q == a.Part || !region.PartitionsMayAlias(a.Part, q) {
							continue
						}
						fields := region.CommonFields(param.Fields, info.partFields[q])
						if len(fields) == 0 {
							continue
						}
						emitCopy(&CopyOp{
							Src: a.Part, Dst: q, Fields: fields,
							Reduce:    region.ReduceNone,
							SrcLaunch: nil, SrcArg: -1,
						})
					}
				case ir.PrivReduce:
					// The temporary reduction instance must be folded into
					// the reduced partition's own instances and into every
					// aliased used partition. Disjoint destinations receive
					// every reduced field, not just the fields their own
					// tasks touch: they are the finalization sources, and a
					// reduction into an aliased partition would otherwise
					// have no disjoint home and be lost at loop exit.
					emitCopy(&CopyOp{
						Src: a.Part, Dst: a.Part, Fields: append([]region.FieldID(nil), param.Fields...),
						Reduce:    param.Op,
						SrcLaunch: s, SrcArg: ai,
					})
					for _, q := range info.usedParts {
						if q == a.Part || !region.PartitionsMayAlias(a.Part, q) {
							continue
						}
						fields := region.CommonFields(param.Fields, info.partFields[q])
						if q.Disjoint() {
							fields = append([]region.FieldID(nil), param.Fields...)
						}
						if len(fields) == 0 {
							continue
						}
						emitCopy(&CopyOp{
							Src: a.Part, Dst: q, Fields: fields,
							Reduce:    param.Op,
							SrcLaunch: s, SrcArg: ai,
						})
					}
				}
			}
		}
	}
	return body, inserted
}
