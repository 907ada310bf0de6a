package verify

import (
	"fmt"
	"strings"

	"repro/internal/cr"
	"repro/internal/ir"
)

// CheckSpec statically validates the compiler's specialization tables
// (cr.SpecTable) against an independent recomputation from the compiled
// loop's pair lists and ownership. The tables are the only source of the
// kernel costs, transfer sizes and work lists spmd.(*runState).resolve
// binds, so each ingredient is re-derived here from first principles and
// compared:
//
//   - block congruence: every owned color's ColorIdx equals its dense slot
//     in the ownership partition's running block offset (so the specialized
//     plan binds the same collective indices and cost-table slots as direct
//     capture);
//   - launch cost volumes match the cost argument's subregion volumes;
//   - pair volumes and endpoint shards match the intersection geometry and
//     the ownership map (so specialized transfer sizes and node bindings
//     equal captured ones under any assignment);
//   - the per-shard work partition equals a from-scratch regrouping of the
//     pair list (same consumer per group, same producer pair sets, in the
//     same order) — the work lists spmd's one resolver walks, memoized
//     or re-resolved every iteration, shared capture or not.
//
// A nil return means every resolved plan is structurally identical to one
// derived from the geometry directly, and therefore issues the same
// synchronization.
func CheckSpec(c *cr.Compiled) error {
	if c == nil {
		return fmt.Errorf("verify: nil compiled loop")
	}
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	spec := &c.Spec
	ns := c.Opts.NumShards

	base := 0
	for s := 0; s < ns; s++ {
		for k, col := range c.Owned[s] {
			if c.ColorIdx[col] != base+k {
				fail("shard %d owned color %v has ColorIdx %d, want dense slot %d: owned blocks are not contiguous in the domain", s, col, c.ColorIdx[col], base+k)
			}
		}
		base += len(c.Owned[s])
	}

	if len(spec.Ops) != len(c.Body) {
		fail("Ops has %d entries, want one per body op (%d)", len(spec.Ops), len(c.Body))
	} else {
		for i, op := range c.Body {
			so := &spec.Ops[i]
			switch {
			case op.Launch != nil:
				if so.Launch == nil {
					fail("body op %d is a launch but has no launch spec", i)
					continue
				}
				checkLaunchSpec(c, i, op.Launch, so.Launch, fail)
			case op.Copy != nil:
				if so.Copy == nil {
					fail("body op %d is a copy but has no copy spec", i)
					continue
				}
				checkCopySpec(c, op.Copy, so.Copy, fail)
			default:
				if so.Launch != nil || so.Copy != nil {
					fail("scalar body op %d carries a spec", i)
				}
			}
		}
	}

	if len(errs) > 0 {
		return fmt.Errorf("verify: specialization tables diverge from recomputation (%d findings):\n  %s",
			len(errs), strings.Join(errs, "\n  "))
	}
	return nil
}

func checkLaunchSpec(c *cr.Compiled, i int, l *ir.Launch, ls *cr.LaunchSpec, fail func(string, ...any)) {
	if len(ls.CostVol) != len(c.Domain) {
		fail("body op %d cost table has %d entries, want one per domain color (%d)", i, len(ls.CostVol), len(c.Domain))
		return
	}
	arg := l.Args[l.Task.CostArg]
	for ci, col := range c.Domain {
		if want := arg.At(col).Volume(); ls.CostVol[ci] != want {
			fail("body op %d color %v cost volume = %d, want %d", i, col, ls.CostVol[ci], want)
		}
	}
}

func checkCopySpec(c *cr.Compiled, cp *cr.CopyOp, cs *cr.CopySpec, fail func(string, ...any)) {
	pairs := cp.Pairs
	if len(cs.PairVols) != len(pairs) || len(cs.SrcShard) != len(pairs) || len(cs.DstShard) != len(pairs) {
		fail("copy %d pair tables sized %d/%d/%d, want %d each", cp.ID, len(cs.PairVols), len(cs.SrcShard), len(cs.DstShard), len(pairs))
		return
	}
	for k, pr := range pairs {
		if want := pr.Overlap.Volume(); cs.PairVols[k] != want {
			fail("copy %d pair %d volume = %d, want %d", cp.ID, k, cs.PairVols[k], want)
		}
		if int(cs.SrcShard[k]) != c.ShardOf[pr.Src] {
			fail("copy %d pair %d src shard = %d, want owner %d", cp.ID, k, cs.SrcShard[k], c.ShardOf[pr.Src])
		}
		if int(cs.DstShard[k]) != c.ShardOf[pr.Dst] {
			fail("copy %d pair %d dst shard = %d, want owner %d", cp.ID, k, cs.DstShard[k], c.ShardOf[pr.Dst])
		}
	}

	// Regroup the pair list from scratch (the same destination-run notion
	// the happens-before builder uses, see groups) and rebuild each shard's
	// work partition: one consumer per group (the destination's owner),
	// producer pair sets ascending, groups in pair order.
	want := make([][]cr.SpecWork, c.Opts.NumShards)
	for _, g := range groups(cp) {
		start, end := g[0], g[1]
		touched := map[int]int{}
		get := func(s int) *cr.SpecWork {
			w, ok := touched[s]
			if !ok {
				want[s] = append(want[s], cr.SpecWork{GroupStart: start, GroupEnd: end})
				w = len(want[s]) - 1
				touched[s] = w
			}
			return &want[s][w]
		}
		get(c.ShardOf[pairs[start].Dst]).Consumer = true
		for k := start; k < end; k++ {
			w := get(c.ShardOf[pairs[k].Src])
			w.ProdPairs = append(w.ProdPairs, k)
		}
	}
	if len(cs.PerShard) != len(want) {
		fail("copy %d PerShard has %d entries, want %d", cp.ID, len(cs.PerShard), len(want))
		return
	}
	for s := range want {
		if !workListsEqual(cs.PerShard[s], want[s]) {
			fail("copy %d shard %d work list diverges:\n    got  %+v\n    want %+v", cp.ID, s, cs.PerShard[s], want[s])
		}
	}
}

func workListsEqual(a, b []cr.SpecWork) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GroupStart != b[i].GroupStart || a[i].GroupEnd != b[i].GroupEnd || a[i].Consumer != b[i].Consumer {
			return false
		}
		if len(a[i].ProdPairs) != len(b[i].ProdPairs) {
			return false
		}
		for j := range a[i].ProdPairs {
			if a[i].ProdPairs[j] != b[i].ProdPairs[j] {
				return false
			}
		}
	}
	return true
}
