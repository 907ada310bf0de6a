// Package intersect computes the region intersections that determine
// communication patterns (paper §3.3). The computation is two-phase,
// exactly as in the paper: a shallow phase determines which pairs of
// subregions overlap at all, using an interval tree (1-D/unstructured
// regions) or a bounding-volume hierarchy (structured regions) over
// subregion bounds to avoid the O(N^2) all-pairs comparison; a complete
// phase then computes the exact set of overlapping elements for the
// surviving pairs. Table 1 of the paper reports the running times of these
// two phases; the benchmark harness times these functions.
package intersect

import (
	"slices"

	"repro/internal/geometry"
	"repro/internal/region"
)

// Candidate is a possibly-overlapping (source color, destination color)
// pair found by the shallow phase.
type Candidate struct {
	Src, Dst geometry.Point
}

// Pair is a confirmed overlap: the source and destination colors and the
// exact intersection of their subregions, produced by the complete phase.
type Pair struct {
	Src, Dst geometry.Point
	Overlap  geometry.IndexSpace
}

// Shallow returns the candidate pairs between the subregions of src and dst
// whose spans' bounding boxes overlap. The result may include pairs whose
// exact intersection is empty (bounding boxes are conservative); Complete
// filters those. Pairs are returned grouped by destination color in
// deterministic (color-list) order.
func Shallow(src, dst *region.Partition) []Candidate {
	srcColors := src.Colors()
	if len(srcColors) == 0 {
		return nil
	}
	// query appends the indices of the source colors a destination span may
	// meet, possibly more than once.
	var query func(sp geometry.Rect, hits []int) []int
	if src.Parent().IndexSpace().Dim() == 1 {
		// One interval per source subregion — its bounding interval, as in
		// the paper ("an interval tree ... makes this operation O(N log N)"
		// over the subregions). Queries use the destination's exact spans,
		// so a sparse destination doesn't pay for its bounding box; the
		// complete phase removes any bounds-only false positives.
		ivs := make([]geometry.Interval, 0, len(srcColors))
		for i, c := range srcColors {
			b := src.Sub(c).IndexSpace().Bounds()
			if !b.Empty() {
				ivs = append(ivs, geometry.Interval{Lo: b.Lo.X(), Hi: b.Hi.X(), ID: i})
			}
		}
		tree := geometry.NewIntervalTree(ivs)
		query = func(sp geometry.Rect, hits []int) []int { return tree.Query(sp.Lo.X(), sp.Hi.X(), hits) }
	} else {
		var entries []geometry.BVHEntry
		for i, c := range srcColors {
			is := src.Sub(c).IndexSpace()
			for k := 0; k < is.NumSpans(); k++ {
				entries = append(entries, geometry.BVHEntry{Rect: is.Span(k), ID: i})
			}
		}
		query = geometry.NewBVH(entries).Query
	}

	// lastHit[i] is the last destination (counted from 1) that source i was
	// a candidate for: each destination color collects its distinct hits and
	// sorts only those into source-color order, so the whole phase costs the
	// hits, not sources times destinations.
	var out []Candidate
	lastHit := make([]int, len(srcColors))
	var hits, distinct []int
	for d, dc := range dst.Colors() {
		distinct = distinct[:0]
		is := dst.Sub(dc).IndexSpace()
		for k := 0; k < is.NumSpans(); k++ {
			hits = query(is.Span(k), hits[:0])
			for _, id := range hits {
				if lastHit[id] != d+1 {
					lastHit[id] = d + 1
					distinct = append(distinct, id)
				}
			}
		}
		slices.Sort(distinct)
		for _, id := range distinct {
			out = append(out, Candidate{Src: srcColors[id], Dst: dc})
		}
	}
	return out
}

// Complete computes the exact intersections for the candidate pairs,
// dropping pairs whose exact overlap is empty. In the sharded execution
// this phase runs per shard over only the shard's own pairs, which is what
// makes it O(M^2) in non-empty intersections per shard rather than global
// (§3.3); the harness times it accordingly.
func Complete(src, dst *region.Partition, cands []Candidate) []Pair {
	// A disjoint partition against itself: disjointness already refutes
	// every pair off the diagonal, and on it the overlap is the subregion.
	self := src == dst && src.Disjoint()
	out := make([]Pair, 0, len(cands))
	for _, c := range cands {
		var ov geometry.IndexSpace
		switch {
		case !self:
			ov = src.Sub(c.Src).IndexSpace().Intersect(dst.Sub(c.Dst).IndexSpace())
		case c.Src == c.Dst:
			ov = src.Sub(c.Src).IndexSpace()
		}
		if !ov.Empty() {
			out = append(out, Pair{Src: c.Src, Dst: c.Dst, Overlap: ov})
		}
	}
	return out
}

// Pairs runs both phases.
func Pairs(src, dst *region.Partition) []Pair {
	return Complete(src, dst, Shallow(src, dst))
}

// ShallowBrute is the O(N^2) all-pairs shallow phase the acceleration
// structures replace (§3.3 explicitly calls out avoiding "an O(N^2)
// startup cost in comparing all pairs of subregions"). The tests use it as
// the reference Shallow must match, up to candidate precision.
func ShallowBrute(src, dst *region.Partition) []Candidate {
	srcColors := src.Colors()
	var out []Candidate
	for _, dc := range dst.Colors() {
		db := dst.Sub(dc).IndexSpace().Bounds()
		for _, sc := range srcColors {
			sb := src.Sub(sc).IndexSpace().Bounds()
			if !sb.Empty() && !db.Empty() && sb.Overlaps(db) {
				out = append(out, Candidate{Src: sc, Dst: dc})
			}
		}
	}
	return out
}
