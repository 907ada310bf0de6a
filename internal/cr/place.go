package cr

import (
	"repro/internal/ir"
	"repro/internal/region"
)

// This file implements the copy-placement optimization (§3.2): variants of
// partial redundancy elimination, dead-code elimination, and loop-invariant
// code motion, operating on statements whose read/write sets are whole
// partitions. The paper notes the textbook algorithms apply with minimal
// modification precisely because data replication removed aliasing between
// partitions and statements summarize element accesses at partition
// granularity.
//
// Soundness notes: a task's write privilege does not promise it writes
// every element, so writes never "kill" earlier values; liveness is
// therefore judged cyclically over the whole loop (a read anywhere keeps a
// copy live), and instances of disjoint partitions are additionally
// live-out because finalization reads them.

// access is a partition-granularity read or write.
type access struct {
	part   *region.Partition
	fields []region.FieldID
}

// opReads returns the partitions an op reads. A reduction copy reads its
// destination (read-modify-write); reduce-privilege launch arguments read
// nothing (contributions go to a private temporary).
func opReads(op BodyOp) []access {
	switch {
	case op.Launch != nil:
		var out []access
		for ai, a := range op.Launch.Args {
			param := op.Launch.Task.Params[ai]
			if param.Priv == ir.PrivRead || param.Priv == ir.PrivReadWrite {
				out = append(out, access{a.Part, param.Fields})
			}
		}
		return out
	case op.Copy != nil:
		if op.Copy.Reduce != region.ReduceNone {
			return []access{{op.Copy.Dst, op.Copy.Fields}}
		}
		return []access{{op.Copy.Src, op.Copy.Fields}}
	default:
		return nil
	}
}

// opWrites returns the partitions an op writes.
func opWrites(op BodyOp) []access {
	switch {
	case op.Launch != nil:
		var out []access
		for ai, a := range op.Launch.Args {
			param := op.Launch.Task.Params[ai]
			if param.Priv == ir.PrivReadWrite {
				out = append(out, access{a.Part, param.Fields})
			}
		}
		return out
	case op.Copy != nil:
		return []access{{op.Copy.Dst, op.Copy.Fields}}
	default:
		return nil
	}
}

func accessesTouch(as []access, p *region.Partition, fields []region.FieldID) bool {
	for _, a := range as {
		if a.part == p && region.SharedFields(a.fields, fields) > 0 {
			return true
		}
	}
	return false
}

// placeCopies runs the placement passes over the compiled body, updating
// the report.
func placeCopies(c *Compiled, info *loopInfo) {
	c.Report.RedundantRemoved = removeRedundant(c)
	c.Report.DeadRemoved = removeDead(c)
	c.Report.Hoisted = hoistInvariant(c)
}

// removeRedundant deletes a plain copy when an identical later copy
// overwrites the same overlap before anyone observes the first: same
// source and destination partitions (hence the same pairs and overlap
// elements), fields covered, and no read of the destination in between.
// Writes to the source in between are irrelevant — the surviving copy
// delivers the fresher data.
func removeRedundant(c *Compiled) int {
	removed := 0
	for i := 0; i < len(c.Body); i++ {
		c1 := c.Body[i].Copy
		if c1 == nil || c1.Reduce != region.ReduceNone {
			continue
		}
		for j := i + 1; j < len(c.Body); j++ {
			c2 := c.Body[j].Copy
			if c2 == nil || c2.Reduce != region.ReduceNone || c2.Src != c1.Src || c2.Dst != c1.Dst {
				continue
			}
			if !region.CoversFields(c2.Fields, c1.Fields) {
				continue
			}
			clean := true
			for k := i + 1; k < j; k++ {
				if accessesTouch(opReads(c.Body[k]), c1.Dst, c1.Fields) {
					clean = false
					break
				}
			}
			if clean {
				c.Body = append(c.Body[:i], c.Body[i+1:]...)
				removed++
				i--
				break
			}
		}
	}
	return removed
}

// removeDead deletes copies (per field) whose delivered data is never
// observed: not read by any task anywhere in the loop (liveness is cyclic:
// a read earlier in the body observes the copy on the next iteration), not
// live-out through finalization (instances of disjoint partitions carry
// final data back to the parent), and not forwarded by a live plain copy.
// Liveness is a backward fixpoint through copy chains, which also kills
// mutually-recursive read-modify-write reduction copies into instances
// nobody consumes (e.g. charge folds into ghost instances whose charge
// field is never read).
func removeDead(c *Compiled) int {
	type key struct {
		cp    *CopyOp
		field region.FieldID
	}
	launchReads := func(p *region.Partition, f region.FieldID) bool {
		for _, op := range c.Body {
			if op.Launch == nil {
				continue
			}
			if accessesTouch(opReads(op), p, []region.FieldID{f}) {
				return true
			}
		}
		return false
	}
	live := map[key]bool{}
	changed := true
	for changed {
		changed = false
		for _, op := range c.Body {
			cp := op.Copy
			if cp == nil {
				continue
			}
			for _, f := range cp.Fields {
				k := key{cp, f}
				if live[k] {
					continue
				}
				ok := cp.Dst.Disjoint() || launchReads(cp.Dst, f)
				if !ok {
					// Forwarded by a live plain copy reading this partition?
					for _, op2 := range c.Body {
						c2 := op2.Copy
						if c2 == nil || c2.Reduce != region.ReduceNone || c2.Src != cp.Dst {
							continue
						}
						for _, f2 := range c2.Fields {
							if f2 == f && live[key{c2, f}] {
								ok = true
								break
							}
						}
						if ok {
							break
						}
					}
				}
				if ok {
					live[k] = true
					changed = true
				}
			}
		}
	}
	removed := 0
	for i := 0; i < len(c.Body); i++ {
		cp := c.Body[i].Copy
		if cp == nil {
			continue
		}
		kept := cp.Fields[:0]
		for _, f := range cp.Fields {
			if live[key{cp, f}] {
				kept = append(kept, f)
			}
		}
		cp.Fields = kept
		if len(cp.Fields) == 0 {
			c.Body = append(c.Body[:i], c.Body[i+1:]...)
			removed++
			i--
		}
	}
	return removed
}

// hoistInvariant moves loop-invariant plain copies to the loop preheader:
// the source is never written in the loop and the destination is written
// only by this copy, so one copy before the loop delivers the same data as
// one per iteration (§3.2 loop-invariant code motion; the paper's shallow
// intersections are hoisted the same way).
func hoistInvariant(c *Compiled) int {
	hoisted := 0
	for i := 0; i < len(c.Body); i++ {
		cp := c.Body[i].Copy
		if cp == nil || cp.Reduce != region.ReduceNone {
			continue
		}
		invariant := true
		for k := range c.Body {
			if k == i {
				continue
			}
			if accessesTouch(opWrites(c.Body[k]), cp.Src, cp.Fields) ||
				accessesTouch(opWrites(c.Body[k]), cp.Dst, cp.Fields) {
				invariant = false
				break
			}
		}
		if invariant {
			c.InitCopies = append(c.InitCopies, cp)
			c.Body = append(c.Body[:i], c.Body[i+1:]...)
			hoisted++
			i--
		}
	}
	return hoisted
}
