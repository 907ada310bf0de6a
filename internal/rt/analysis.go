package rt

import (
	"repro/internal/geometry"
	"repro/internal/intersect"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// use records one region argument of a previously issued launch for
// dependence analysis: which partition it touched, with what privilege and
// fields, and the per-color completion events and executing nodes. These
// are the runtime's epoch lists, kept at launch/partition granularity
// rather than per element — the coarsening that language-level partitions
// make sound (paper §6, comparison with inspector/executor).
type use struct {
	part   *region.Partition
	priv   ir.Privilege
	op     region.ReductionOp
	fields []region.FieldID // the parameter's; read-only
	// full reports whether the launch covered the partition's whole color
	// space; only full writers can dominate (absorb) older uses.
	full bool
	// domIdx maps a color of the issuing launch's domain to its index; it is
	// the launch site's, shared between all uses of that launch, and
	// done/node are dense slices indexed by it. Colors absent from domIdx
	// were not covered by the launch.
	domIdx map[geometry.Point]int
	done   []realm.Event
	node   []int
}

type pairKey struct {
	a, b region.PartitionID
}

// pairInfo is a cached color-pair overlap between two partitions.
type pairInfo struct {
	src, dst geometry.Point
	vol      int64
}

// dep is one dependence of a new task on a prior one: the event to wait
// for, plus data-movement parameters when the edge carries data (RAW).
type dep struct {
	ev      realm.Event
	srcNode int
	bytes   int64 // >0 when the edge moves data between nodes
}

// pairsBetween returns (and caches) the exact color-pair overlaps between
// two partitions, the dynamic half of the analysis (§3.3): the shallow
// phase's candidates with a non-empty overlap, in its order. Only volumes
// are kept, so the overlaps are counted rather than built.
func (e *Engine) pairsBetween(src, dst *region.Partition) []pairInfo {
	key := pairKey{src.ID(), dst.ID()}
	if ps, ok := e.pairCache[key]; ok {
		return ps
	}
	cands := intersect.Shallow(src, dst)
	out := make([]pairInfo, 0, len(cands))
	for _, c := range cands {
		if vol := src.Sub(c.Src).IndexSpace().OverlapVolume(dst.Sub(c.Dst).IndexSpace()); vol > 0 {
			out = append(out, pairInfo{src: c.Src, dst: c.Dst, vol: vol})
		}
	}
	e.pairCache[key] = out
	return out
}

// depsForArg computes, for each color of the new launch's domain (indexed
// by position in the domain slice), the dependencies the new use (not yet
// registered) has on prior uses of the same region tree. The static
// partition-level aliasing test prunes pairs of partitions that provably
// cannot interfere; surviving pairs are refined to exact task-level edges
// with the cached dynamic intersections. The new use's domIdx doubles as the
// domain-membership test.
func (e *Engine) depsForArg(newUse *use, domain []geometry.Point) [][]dep {
	root := newUse.part.Parent().Root()
	out := make([][]dep, len(domain))
	for _, u := range e.users[root] {
		nf := region.SharedFields(u.fields, newUse.fields)
		if nf == 0 || !ir.Conflicts(u.priv, u.op, newUse.priv, newUse.op) {
			continue
		}
		if !region.PartitionsMayAlias(u.part, newUse.part) && u.part != newUse.part {
			continue
		}
		raw := u.priv != ir.PrivRead // the prior use produced data the new one consumes
		if u.part == newUse.part && u.part.Disjoint() {
			// Identity pairs: subregions of a disjoint partition interfere
			// only with themselves. Iterate the domain slice to keep
			// dependence order — and thus the simulation — deterministic.
			for di, c := range domain {
				ui, ok := u.domIdx[c]
				if !ok {
					continue
				}
				d := dep{ev: u.done[ui], srcNode: u.node[ui]}
				if raw {
					d.bytes = int64(nf) * region.EltBytes * u.part.Sub(c).Volume()
				}
				out[di] = append(out[di], d)
			}
			continue
		}
		for _, p := range e.pairsBetween(u.part, newUse.part) {
			ui, ok := u.domIdx[p.src]
			if !ok {
				continue
			}
			di, ok := newUse.domIdx[p.dst]
			if !ok {
				continue
			}
			d := dep{ev: u.done[ui], srcNode: u.node[ui]}
			if raw {
				d.bytes = int64(nf) * region.EltBytes * p.vol
			}
			out[di] = append(out[di], d)
		}
	}
	return out
}

// coversPartition reports (and caches) whether partition a's union of
// subregions covers partition b's; the containment test over large span
// lists is expensive, and launch loops re-ask the same question every
// iteration.
func (e *Engine) coversPartition(a, b *region.Partition) bool {
	if a == b {
		return true
	}
	key := pairKey{a.ID(), b.ID()}
	if v, ok := e.coverCache[key]; ok {
		return v
	}
	v := a.Union().ContainsAll(b.Union())
	e.coverCache[key] = v
	return v
}

// registerUse appends the new use and, when it is a full-domain writer,
// prunes older uses it dominates: any prior use whose touched elements and
// fields are covered is transitively ordered behind the writer, so future
// conflicts with it are implied by conflicts with the writer (Legion's
// epoch-list advance).
func (e *Engine) registerUse(u *use) {
	root := u.part.Parent().Root()
	if u.priv == ir.PrivReadWrite && u.full {
		kept := e.users[root][:0]
		for _, old := range e.users[root] {
			if region.CoversFields(u.fields, old.fields) && e.coversPartition(u.part, old.part) {
				// Dominated. During replay the pruned use goes into the
				// retirement ring: at the trace's fixpoint only window-aged
				// uses are ever pruned, and after one more iteration nothing
				// can reference them, so their slices are safe to recycle.
				if ts := e.trace; ts != nil && ts.phase == tracePhaseReplay {
					ts.retireNew = append(ts.retireNew, old)
				}
				continue
			}
			kept = append(kept, old)
		}
		e.users[root] = kept
	}
	e.users[root] = append(e.users[root], u)
}
