package cr

// Specialization tables: the compile-time half of cross-shard trace
// sharing. Every shard of a compiled loop executes the same body over a
// different color block, so everything the SPMD executor's per-shard plan
// capture would resolve at run time that does NOT depend on the shard's
// node — every shard's exchange step lists, pair volumes, kernel cost
// volumes — is a pure function of the compiled plan.
// The compiler emits it once, here, and the executor instantiates each
// shard's concrete plan by table substitution (internal/spmd/plan.go),
// memoized or re-resolved every iteration, shared capture or not. The
// tables are statically checked by internal/verify.CheckSpec against a
// direct recomputation from the pair lists. The tables are indexed by
// dense color slot (ColorIdx), not by a shard's position in its block, so
// one table serves every shard of a compiled loop, ragged blocks included.

import "repro/internal/ir"

// CopySpec is the pair table of one copy op.
type CopySpec struct {
	// PairVols[k] is Pairs[k].Overlap.Volume(); the executor scales it by
	// element size and field count.
	PairVols []int64
}

// LaunchSpec is the shard-independent cost table of one launch op.
type LaunchSpec struct {
	// CostVol[i] is the cost-argument subregion volume of Domain[i] (dense
	// by ColorIdx); the executor turns it into a kernel duration.
	CostVol []int64
}

// OpSpec pairs a body op with its specialization table; exactly one field
// is set, mirroring BodyOp.
type OpSpec struct {
	Launch *LaunchSpec
	Copy   *CopySpec
}

// SpecTable is the full specialization metadata of one compiled loop.
type SpecTable struct {
	// Ops is parallel to Compiled.Body; body ops of one CopyOp share one
	// CopySpec.
	Ops []OpSpec
	// Exchanges is parallel to Compiled.Body: the exchange starting at each
	// op (exchange.go).
	Exchanges []Exchange
}

// buildSpec emits the specialization tables. Called by Compile after
// createShards (ownership fixed) and computeIntersections (pairs fixed).
func (c *Compiled) buildSpec() {
	spec := SpecTable{Ops: make([]OpSpec, len(c.Body))}
	copyByID := make(map[int]*CopySpec)
	for i, op := range c.Body {
		switch {
		case op.Launch != nil:
			spec.Ops[i].Launch = c.buildLaunchSpec(op.Launch)
		case op.Copy != nil:
			cs, ok := copyByID[op.Copy.ID]
			if !ok {
				cs = c.buildCopySpec(op.Copy)
				copyByID[op.Copy.ID] = cs
			}
			spec.Ops[i].Copy = cs
		}
	}
	c.Spec = spec
	c.buildExchanges()
}

func (c *Compiled) buildLaunchSpec(l *ir.Launch) *LaunchSpec {
	ls := &LaunchSpec{CostVol: make([]int64, len(c.Domain))}
	arg := l.Args[l.Task.CostArg]
	for i, col := range c.Domain {
		ls.CostVol[i] = arg.At(col).Volume()
	}
	return ls
}

// buildCopySpec tabulates each pair's volume.
func (c *Compiled) buildCopySpec(cp *CopyOp) *CopySpec {
	cs := &CopySpec{PairVols: make([]int64, len(cp.Pairs))}
	for k, pr := range cp.Pairs {
		cs.PairVols[k] = pr.Overlap.Volume()
	}
	return cs
}
