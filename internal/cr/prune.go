package cr

// Prune markers and rebuild records: data passed between the schedule
// certifier (internal/verify) and the SPMD executor (internal/spmd) — a
// prune written by the certifier and consumed by the executor, a rebuild
// recorded by the executor and checked by the certifier. They live here
// because verify analyzes Compiled plans (verify imports cr) while spmd
// executes them (spmd imports cr), and neither may import the other.

import "repro/internal/region"

// PruneInfo records the synchronization and initialization work the
// certifier has licensed the executor to skip. It is attached to
// Compiled.Prune by verify.PlanPrune after the pruned schedule re-passes
// the full race and liveness checks; a nil PruneInfo (the default) means
// the executor runs the conservative schedule unchanged.
//
// Three classes of point-to-point sync edges can be elided per (copy, pair):
//
//   - War: the consumer's write-after-read release into the pair's war
//     event, and symmetrically the producer's wait on it. Redundant when
//     every prior reader of the destination already happens-before the copy
//     along another path (typically through the copy's source dependence).
//   - Done: the producer's completion trigger into the pair's done event,
//     the consumer's merge of it into the destination's lastWrite, and its
//     contribution to the shard's iteration-completion merge (the copy's
//     own completion event takes its place there).
//   - Chain: the fold-order edge from the previous reduction application to
//     this one. Redundant when the consecutive applications touch disjoint
//     elements, so their order cannot affect the fold result.
//
// DeadInit marks instances whose initialization copy from the parent region
// is dead: every read of the instance is covered by compiler-inserted plain
// overwrites that happen-before it, so the population (a real cross-node
// transfer) can be skipped entirely. In Real mode the store is still
// created — it stays zero until the first overwrite lands.
type PruneInfo struct {
	// War/Done/Chain map CopyOp.ID to a per-pair skip mask. A missing entry
	// or short mask means "keep".
	War   map[int][]bool
	Done  map[int][]bool
	Chain map[int][]bool
	// DeadInit maps a used partition to a per-color skip mask, dense by
	// ColorIdx over the compiled domain.
	DeadInit map[*region.Partition][]bool
}

func skip(m map[int][]bool, copyID, pair int) bool {
	if m == nil {
		return false
	}
	mask := m[copyID]
	return pair < len(mask) && mask[pair]
}

// SkipWar reports whether the pair's war sync is pruned. Nil-safe: the
// executor consults it on every pair of every iteration.
func (p *PruneInfo) SkipWar(copyID, pair int) bool {
	return p != nil && skip(p.War, copyID, pair)
}

// SkipDone reports whether the pair's done sync is pruned.
func (p *PruneInfo) SkipDone(copyID, pair int) bool {
	return p != nil && skip(p.Done, copyID, pair)
}

// SkipChain reports whether the pair's reduction-chain edge is pruned.
func (p *PruneInfo) SkipChain(copyID, pair int) bool {
	return p != nil && skip(p.Chain, copyID, pair)
}

// SkipInit reports whether the instance (part, colorIdx)'s initialization
// population is pruned.
func (p *PruneInfo) SkipInit(part *region.Partition, colorIdx int) bool {
	if p == nil || p.DeadInit == nil {
		return false
	}
	mask := p.DeadInit[part]
	return colorIdx < len(mask) && mask[colorIdx]
}

func (p *PruneInfo) set(m *map[int][]bool, copyID, pair, n int, v bool) {
	if *m == nil {
		*m = make(map[int][]bool)
	}
	mask := (*m)[copyID]
	if mask == nil {
		mask = make([]bool, n)
		(*m)[copyID] = mask
	}
	mask[pair] = v
}

// SetWar, SetDone, SetChain, and SetInit flip individual skip bits; n sizes
// a freshly created mask (the copy's pair count / the domain size).
func (p *PruneInfo) SetWar(copyID, pair, n int, v bool)   { p.set(&p.War, copyID, pair, n, v) }
func (p *PruneInfo) SetDone(copyID, pair, n int, v bool)  { p.set(&p.Done, copyID, pair, n, v) }
func (p *PruneInfo) SetChain(copyID, pair, n int, v bool) { p.set(&p.Chain, copyID, pair, n, v) }

// SetInit flips one instance's dead-init bit.
func (p *PruneInfo) SetInit(part *region.Partition, colorIdx, n int, v bool) {
	if p.DeadInit == nil {
		p.DeadInit = make(map[*region.Partition][]bool)
	}
	mask := p.DeadInit[part]
	if mask == nil {
		mask = make([]bool, n)
		p.DeadInit[part] = mask
	}
	mask[colorIdx] = v
}

func countMask(m map[int][]bool) int {
	n := 0
	for _, mask := range m {
		for _, v := range mask {
			if v {
				n++
			}
		}
	}
	return n
}

// PrunedWar, PrunedDone, and PrunedChain count the pruned sync edges per
// class; PrunedEdges is their sum. All counts are static edge identities —
// one per (copy, pair), independent of the trip count.
func (p *PruneInfo) PrunedWar() int   { return countMask(p.War) }
func (p *PruneInfo) PrunedDone() int  { return countMask(p.Done) }
func (p *PruneInfo) PrunedChain() int { return countMask(p.Chain) }
func (p *PruneInfo) PrunedEdges() int {
	if p == nil {
		return 0
	}
	return p.PrunedWar() + p.PrunedDone() + p.PrunedChain()
}

// PrunedInits counts the dead initialization populations.
func (p *PruneInfo) PrunedInits() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, mask := range p.DeadInit {
		for _, v := range mask {
			if v {
				n++
			}
		}
	}
	return n
}

// RebuildSpec describes one failover the recovery layer (spmd/recover.go)
// performed: the placement it installed and the state it restored. The
// layer records one per completed failover in spmd.FaultReport.Rebuilds,
// and verify.CertifyRebuild checks it.
type RebuildSpec struct {
	// Nodes is the cluster size. Node 0 hosts the control thread.
	Nodes int
	// Crashed lists the nodes down when the rebuild was installed,
	// ascending.
	Crashed []int
	// Assign maps each shard to the node hosting it after failover: shards
	// blockwise over the live nodes.
	Assign []int
	// Restored[i][colorIdx] reports whether the rebuild repopulated
	// instance (UsedParts[i], the color at colorIdx): from the checkpoint,
	// or by the init phase on a restart from scratch.
	Restored [][]bool
	// ResumeIter is the iteration the rebuilt schedule resumes from: the
	// last committed checkpoint boundary (0 for a restart from scratch).
	ResumeIter int
}
