package geometry

import (
	"cmp"
	"fmt"
	"slices"
)

// IndexSpace is a (possibly sparse) set of points, represented as a list of
// pairwise-disjoint rectangles of a common dimensionality. Dense index
// spaces are a single rectangle. The representation is not unique, but all
// operations preserve the disjointness invariant, and Equal compares the
// underlying point sets rather than the representations.
type IndexSpace struct {
	dim   int8
	spans []Rect // pairwise disjoint, none empty
}

// NewIndexSpace returns the dense index space covering r.
func NewIndexSpace(r Rect) IndexSpace {
	if r.Empty() {
		return IndexSpace{dim: r.Dim()}
	}
	return IndexSpace{dim: r.Dim(), spans: []Rect{r}}
}

// EmptyIndexSpace returns an empty index space of the given dimension.
func EmptyIndexSpace(dim int8) IndexSpace { return IndexSpace{dim: dim} }

// FromPoints builds an index space from an arbitrary set of points
// (duplicates allowed). Runs of consecutive points along the last axis are
// coalesced into rectangles.
func FromPoints(dim int8, pts []Point) IndexSpace {
	if len(pts) == 0 {
		return IndexSpace{dim: dim}
	}
	if dim == 1 {
		ivs := make([][2]int64, len(pts))
		for i, p := range pts {
			ivs[i] = [2]int64{p.C[0], p.C[0]}
		}
		if !slices.IsSortedFunc(ivs, byLo1D) {
			slices.SortFunc(ivs, byLo1D)
		}
		return IndexSpace{dim: 1, spans: mergeRuns1D(ivs)}
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	slices.SortFunc(sorted, Point.compare)
	var spans []Rect
	run := Rect{sorted[0], sorted[0]}
	last := int(dim) - 1
	for _, p := range sorted[1:] {
		if p == run.Hi {
			continue // duplicate
		}
		ext := run.Hi
		ext.C[last]++
		if p == ext {
			run.Hi = p
			continue
		}
		spans = append(spans, run)
		run = Rect{p, p}
	}
	spans = append(spans, run)
	return IndexSpace{dim: dim, spans: spans}
}

// FromDisjointRects builds an index space from rectangles the caller
// guarantees are pairwise disjoint, skipping the quadratic union pass. It
// is the constructor large structured partitions use (e.g. the ghost bands
// of a 1024-tile grid). Empty rectangles are dropped; disjointness is the
// caller's responsibility and is verified only in tests.
func FromDisjointRects(dim int8, rects []Rect) IndexSpace {
	spans := make([]Rect, 0, len(rects))
	for _, r := range rects {
		if !r.Empty() {
			spans = append(spans, r)
		}
	}
	if dim == 1 {
		sortSpans1D(spans)
	}
	return IndexSpace{dim: dim, spans: spans}
}

// FromRects builds an index space as the union of arbitrary (possibly
// overlapping) rectangles.
func FromRects(dim int8, rects []Rect) IndexSpace {
	out := IndexSpace{dim: dim}
	for _, r := range rects {
		out = out.Union(NewIndexSpace(r))
	}
	return out
}

// Dim returns the space's dimensionality.
func (s IndexSpace) Dim() int8 { return s.dim }

// Spans returns the disjoint rectangles making up the space. The returned
// slice must not be modified.
func (s IndexSpace) Spans() []Rect { return s.spans }

// Empty reports whether the space contains no points.
func (s IndexSpace) Empty() bool { return len(s.spans) == 0 }

// Volume returns the number of points in the space.
func (s IndexSpace) Volume() int64 {
	var v int64
	for _, r := range s.spans {
		v += r.Volume()
	}
	return v
}

// Bounds returns the bounding rectangle of the space.
func (s IndexSpace) Bounds() Rect {
	if n := len(s.spans); s.dim == 1 && n > 0 {
		return Rect{s.spans[0].Lo, s.spans[n-1].Hi} // sorted and disjoint
	}
	out := EmptyRect(s.dim)
	for _, r := range s.spans {
		out = out.Union(r)
	}
	return out
}

// Dense reports whether the space is exactly one rectangle.
func (s IndexSpace) Dense() bool { return len(s.spans) == 1 }

// Contains reports whether p is in the space.
func (s IndexSpace) Contains(p Point) bool {
	for _, r := range s.spans {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Each calls fn for every point in the space (span by span, row-major
// within each span), stopping early if fn returns false.
func (s IndexSpace) Each(fn func(Point) bool) {
	for _, r := range s.spans {
		stopped := false
		r.Each(func(p Point) bool {
			if !fn(p) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// EachRow calls fn with the first point and length of every row (see
// Rect.EachRow) of every span, in the order Each visits the points.
func (s IndexSpace) EachRow(fn func(first Point, n int64) bool) {
	for _, r := range s.spans {
		stopped := false
		r.EachRow(func(p Point, n int64) bool {
			stopped = !fn(p, n)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// Points materializes every point in the space. Intended for small spaces
// and tests.
func (s IndexSpace) Points() []Point {
	pts := make([]Point, 0, s.Volume())
	s.Each(func(p Point) bool { pts = append(pts, p); return true })
	return pts
}

// sweepThreshold is the size above which 1-D operations switch from the
// quadratic all-pairs algorithms to sorted sweeps.
const sweepThreshold = 64

// sortSpans1D sorts 1-D spans in place by lower bound, unless they already
// are. Every IndexSpace constructor and operation maintains the invariant
// that 1-D span lists are sorted and that spans are never modified once
// their space is returned, so the sweeps never re-sort, results may share an
// operand's storage, and anything sorted or merged in place must be a list
// the caller itself allocated.
func sortSpans1D(spans []Rect) {
	for i := 1; i < len(spans); i++ {
		if spans[i].Lo.C[0] < spans[i-1].Lo.C[0] {
			slices.SortFunc(spans, func(a, b Rect) int { return cmp.Compare(a.Lo.C[0], b.Lo.C[0]) })
			return
		}
	}
}

// Intersect returns the set intersection of s and t.
func (s IndexSpace) Intersect(t IndexSpace) IndexSpace {
	s.mustMatch(t)
	if s.dim == 1 && len(s.spans)+len(t.spans) > sweepThreshold {
		return sized1D(intersect1D, s.spans, t.spans)
	}
	var spans []Rect
	for _, a := range s.spans {
		for _, b := range t.spans {
			if c := a.Intersect(b); !c.Empty() {
				spans = append(spans, c)
			}
		}
	}
	if s.dim == 1 {
		sortSpans1D(spans)
	}
	return IndexSpace{dim: s.dim, spans: spans}
}

// sized1D runs a 1-D sweep twice: a counting pass sizes the result before
// the second pass writes it, so a result is one allocation of exactly its
// length and an empty one is none.
func sized1D(sweep func(out, a, b []Rect) int, a, b []Rect) IndexSpace {
	n := sweep(nil, a, b)
	if n == 0 {
		return IndexSpace{dim: 1}
	}
	spans := make([]Rect, n)
	sweep(spans, a, b)
	return IndexSpace{dim: 1, spans: spans}
}

// intersect1D is the sorted-sweep intersection for large 1-D span lists: it
// writes the pieces common to a and b to out, or only counts them when out
// is nil, and returns their number. It gallops like Overlaps, so one span
// against thousands costs a search rather than a scan.
func intersect1D(out, a, b []Rect) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hi.C[0] < b[j].Lo.C[0]:
			i = seek1D(a, i, b[j].Lo.C[0])
		case b[j].Hi.C[0] < a[i].Lo.C[0]:
			j = seek1D(b, j, a[i].Lo.C[0])
		default:
			if out != nil {
				out[n] = R1(max(a[i].Lo.C[0], b[j].Lo.C[0]), min(a[i].Hi.C[0], b[j].Hi.C[0]))
			}
			n++
			if a[i].Hi.C[0] < b[j].Hi.C[0] {
				i++
			} else {
				j++
			}
		}
	}
	return n
}

// Overlaps reports whether s and t share at least one point; it short
// circuits and is cheaper than computing the full intersection. Sorted 1-D
// span lists are swept, galloping over the stretch of one list that lies
// before the other's current span, so a sparse space against a long one
// costs O(short * log long) rather than their sum.
func (s IndexSpace) Overlaps(t IndexSpace) bool {
	s.mustMatch(t)
	if s.dim == 1 {
		a, b := s.spans, t.spans
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].Hi.C[0] < b[j].Lo.C[0]:
				i = seek1D(a, i, b[j].Lo.C[0])
			case b[j].Hi.C[0] < a[i].Lo.C[0]:
				j = seek1D(b, j, a[i].Lo.C[0])
			default:
				return true
			}
		}
		return false
	}
	for i := range s.spans {
		for j := range t.spans {
			if s.spans[i].Overlaps(t.spans[j]) {
				return true
			}
		}
	}
	return false
}

// OverlapVolume returns the number of points s and t share, the Volume of
// their Intersect without building it: 1-D span lists are swept and
// galloped as in intersect1D, other spans summed pairwise.
func (s IndexSpace) OverlapVolume(t IndexSpace) int64 {
	s.mustMatch(t)
	var v int64
	if s.dim != 1 {
		for _, a := range s.spans {
			for _, b := range t.spans {
				v += a.Intersect(b).Volume()
			}
		}
		return v
	}
	a, b := s.spans, t.spans
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hi.C[0] < b[j].Lo.C[0]:
			i = seek1D(a, i, b[j].Lo.C[0])
		case b[j].Hi.C[0] < a[i].Lo.C[0]:
			j = seek1D(b, j, a[i].Lo.C[0])
		default:
			v += min(a[i].Hi.C[0], b[j].Hi.C[0]) - max(a[i].Lo.C[0], b[j].Lo.C[0]) + 1
			if a[i].Hi.C[0] < b[j].Hi.C[0] {
				i++
			} else {
				j++
			}
		}
	}
	return v
}

// seek1D returns the first index after from whose span ends at or after x,
// or len(spans): an exponential probe then a binary search, O(log distance).
// The span at from must end before x.
func seek1D(spans []Rect, from int, x int64) int {
	lo, step := from, 1
	for lo+step < len(spans) && spans[lo+step].Hi.C[0] < x {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(spans))
	for lo+1 < hi {
		if mid := (lo + hi) / 2; spans[mid].Hi.C[0] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Subtract returns the set difference s minus t.
func (s IndexSpace) Subtract(t IndexSpace) IndexSpace {
	s.mustMatch(t)
	if s.dim == 1 && len(s.spans)+len(t.spans) > sweepThreshold {
		return sized1D(subtract1D, s.spans, t.spans)
	}
	// Carve with double buffering and a bounding-box guard: a subtrahend
	// span that overlaps nothing leaves the list untouched (no rebuild), and
	// overlap tests are four integer compares instead of constructing the
	// intersection. Span order is identical to the naive rebuild, so results
	// are representation-identical, not just set-equal.
	cur := s.spans
	owned := false // cur is a scratch buffer of ours, not s.spans
	var spare []Rect
	for _, b := range t.spans {
		touched := false
		for i := range cur {
			if cur[i].Overlaps(b) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		next := spare[:0]
		for _, a := range cur {
			if a.Overlaps(b) {
				next = appendSubtractRect(next, a, b)
			} else {
				next = append(next, a)
			}
		}
		if owned {
			spare = cur
		} else {
			spare = nil
		}
		cur, owned = next, true
	}
	if !owned {
		// Nothing was carved: the result is s itself. coalesce and the 1-D
		// sort mutate the span list, so take a copy first — but only when
		// they would actually run (coalesce skips large lists, and 1-D spans
		// are already sorted by invariant).
		if len(cur) > coalesceLimit {
			return IndexSpace{dim: s.dim, spans: cur}
		}
		cur = append([]Rect(nil), cur...)
	}
	out := IndexSpace{dim: s.dim, spans: cur}
	out.coalesce()
	if s.dim == 1 {
		sortSpans1D(out.spans)
	}
	return out
}

// subtract1D is the sorted-sweep difference for large 1-D span lists: it
// writes a minus b to out, or only counts its spans when out is nil, and
// returns their number. Stretches of a that no span of b reaches are found
// by galloping and copied whole.
func subtract1D(out, a, b []Rect) int {
	n, j := 0, 0
	emit := func(lo, hi int64) {
		if out != nil {
			out[n] = R1(lo, hi)
		}
		n++
	}
	for i := 0; i < len(a); {
		lo, hi := a[i].Lo.C[0], a[i].Hi.C[0]
		if j < len(b) && b[j].Hi.C[0] < lo {
			j = seek1D(b, j, lo)
		}
		if j == len(b) || hi < b[j].Lo.C[0] {
			end := len(a)
			if j < len(b) {
				end = seek1D(a, i, b[j].Lo.C[0])
			}
			if out != nil {
				copy(out[n:], a[i:end])
			}
			n += end - i
			i = end
			continue
		}
		// b[j] is the first subtrahend span reaching a[i]; the last one may
		// reach the next span of a too, so j stays.
		cur := lo
		for k := j; k < len(b) && b[k].Lo.C[0] <= hi && cur <= hi; k++ {
			if b[k].Lo.C[0] > cur {
				emit(cur, b[k].Lo.C[0]-1)
			}
			cur = b[k].Hi.C[0] + 1
		}
		if cur <= hi {
			emit(cur, hi)
		}
		i++
	}
	return n
}

// Union returns the set union of s and t.
func (s IndexSpace) Union(t IndexSpace) IndexSpace {
	s.mustMatch(t)
	diff := t.Subtract(s)
	spans := make([]Rect, 0, len(s.spans)+len(diff.spans))
	a, b := s.spans, diff.spans
	for s.dim == 1 && len(a) > 0 && len(b) > 0 {
		// Two sorted lists: merging them here leaves nothing to sort below.
		if a[0].Lo.C[0] < b[0].Lo.C[0] {
			spans, a = append(spans, a[0]), a[1:]
		} else {
			spans, b = append(spans, b[0]), b[1:]
		}
	}
	spans = append(append(spans, a...), b...)
	out := IndexSpace{dim: s.dim, spans: spans}
	out.coalesce()
	if s.dim == 1 {
		sortSpans1D(out.spans)
	}
	return out
}

// Equal reports whether s and t contain exactly the same points.
func (s IndexSpace) Equal(t IndexSpace) bool {
	return s.ContainsAll(t) && t.ContainsAll(s)
}

// ContainsAll reports whether every point of t is in s. Each span of t is
// carved independently against only the spans of s it overlaps, with an
// early exit on the first uncovered point — for large span lists this is
// dramatically cheaper than materializing t.Subtract(s), which rebuilds the
// whole difference even when the answer is an early "no" (or a trivially
// empty "yes").
func (s IndexSpace) ContainsAll(t IndexSpace) bool {
	t.mustMatch(s)
	if s.dim == 1 && len(s.spans)+len(t.spans) > sweepThreshold {
		return covers1D(s.spans, t.spans)
	}
	if s.dim != 1 && len(s.spans) > xIndexThreshold {
		var ix xspanIndex
		for i, a := range s.spans {
			ix.add(int32(i), a)
		}
		var cand []int32
		for _, b := range t.spans {
			cand = ix.candidates(cand[:0], b.Lo.C[0], b.Hi.C[0])
			if !s.coversRectAmong(b, cand) {
				return false
			}
		}
		return true
	}
	for _, b := range t.spans {
		if !s.coversRect(b) {
			return false
		}
	}
	return true
}

// covers1D is ContainsAll's sweep over large sorted 1-D lists: it gallops to
// the spans of a around each span of b and stops at the first point of b
// they leave out.
func covers1D(a, b []Rect) bool {
	j := 0
	for _, sp := range b {
		if j < len(a) && a[j].Hi.C[0] < sp.Lo.C[0] {
			j = seek1D(a, j, sp.Lo.C[0])
		}
		// Spans of a may touch, so several can cover sp between them; the
		// last one may cover the next span of b too, so j stays on it.
		for cur := sp.Lo.C[0]; ; j++ {
			if j == len(a) || cur < a[j].Lo.C[0] {
				return false
			}
			if cur = a[j].Hi.C[0] + 1; cur > sp.Hi.C[0] {
				break
			}
		}
	}
	return true
}

// coversRectAmong is coversRect restricted to the covering spans named by
// idxs (ascending); spans outside idxs are known not to overlap r.
func (s IndexSpace) coversRectAmong(r Rect, idxs []int32) bool {
	if r.Empty() {
		return true
	}
	var bufA, bufB [16]Rect
	work := append(bufA[:0], r)
	spare := bufB[:0]
	for _, ai := range idxs {
		a := s.spans[ai]
		next := spare[:0]
		for _, w := range work {
			if w.Overlaps(a) {
				next = appendSubtractRect(next, w, a)
			} else {
				next = append(next, w)
			}
		}
		work, spare = next, work
		if len(work) == 0 {
			return true
		}
	}
	return len(work) == 0
}

// coversRect reports whether r is entirely within s, by carving r with s's
// spans until nothing remains (covered) or the span list is exhausted.
func (s IndexSpace) coversRect(r Rect) bool {
	if r.Empty() {
		return true
	}
	var bufA, bufB [16]Rect
	work := append(bufA[:0], r)
	spare := bufB[:0]
	for _, a := range s.spans {
		touched := false
		for i := range work {
			if work[i].Overlaps(a) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		next := spare[:0]
		for _, w := range work {
			if w.Overlaps(a) {
				next = appendSubtractRect(next, w, a)
			} else {
				next = append(next, w)
			}
		}
		work, spare = next, work
		if len(work) == 0 {
			return true
		}
	}
	return len(work) == 0
}

// xIndexThreshold is the span count above which the multi-dimensional
// set operations build an axis-0 extent index instead of scanning every
// span per query. Below it, the plain scans win on constant factor.
const xIndexThreshold = 32

// xspanIndex buckets spans by their exact extent along axis 0. Structured
// partitions (tile grids, ghost bands) produce span lists with only
// O(sqrt(n)) distinct axis-0 extents, so an overlap query touches a few
// groups instead of every span. The index stores span indices, letting
// callers visit candidates in original list order — which keeps carve-based
// algorithms representation-identical to their unindexed forms.
type xspanIndex struct {
	keys   map[[2]int64]int32
	groups []xspanGroup
}

type xspanGroup struct {
	lo, hi int64
	idxs   []int32
}

func (ix *xspanIndex) add(i int32, r Rect) {
	k := [2]int64{r.Lo.C[0], r.Hi.C[0]}
	if ix.keys == nil {
		ix.keys = make(map[[2]int64]int32)
	}
	gi, ok := ix.keys[k]
	if !ok {
		gi = int32(len(ix.groups))
		ix.keys[k] = gi
		ix.groups = append(ix.groups, xspanGroup{lo: k[0], hi: k[1]})
	}
	ix.groups[gi].idxs = append(ix.groups[gi].idxs, i)
}

// candidates appends to buf the indices of spans whose axis-0 extent
// overlaps [lo, hi], sorted ascending (original list order).
func (ix *xspanIndex) candidates(buf []int32, lo, hi int64) []int32 {
	n := len(buf)
	for gi := range ix.groups {
		g := &ix.groups[gi]
		if g.lo <= hi && lo <= g.hi {
			buf = append(buf, g.idxs...)
		}
	}
	slices.Sort(buf[n:])
	return buf
}

// String renders the span list.
func (s IndexSpace) String() string {
	b := append(make([]byte, 0, 2+16*len(s.spans)), '{')
	for i, r := range s.spans {
		if i > 0 {
			b = append(b, ' ')
		}
		b = r.appendTo(b)
	}
	return string(append(b, '}'))
}

func (s IndexSpace) mustMatch(t IndexSpace) {
	if s.dim != t.dim {
		panic(fmt.Sprintf("geometry: index space dimension mismatch %d vs %d", s.dim, t.dim))
	}
}

// appendSubtractRect appends a minus b to out as disjoint rectangles. The
// standard axis-by-axis carve: for each axis, peel off the slabs of a that
// lie strictly below and strictly above b on that axis, then narrow a to
// b's extent on that axis and continue with the next axis. Appending into a
// caller-owned buffer keeps the Subtract/ContainsAll hot loops free of the
// per-pair slice allocation a return-by-value carve forces.
func appendSubtractRect(out []Rect, a, b Rect) []Rect {
	c := a.Intersect(b)
	if c.Empty() {
		return append(out, a)
	}
	rem := a
	for i := 0; i < int(a.Dim()); i++ {
		if rem.Lo.C[i] < c.Lo.C[i] {
			lower := rem
			lower.Hi.C[i] = c.Lo.C[i] - 1
			out = append(out, lower)
			rem.Lo.C[i] = c.Lo.C[i]
		}
		if rem.Hi.C[i] > c.Hi.C[i] {
			upper := rem
			upper.Lo.C[i] = c.Hi.C[i] + 1
			out = append(out, upper)
			rem.Hi.C[i] = c.Hi.C[i]
		}
	}
	return out
}

// coalesceLimit bounds the quadratic merge heuristic: spaces with more
// spans than this skip coalescing entirely (disjointness, the invariant
// that matters, is preserved either way; coalescing is only a compaction).
const coalesceLimit = 128

// coalesce greedily merges pairs of spans that abut with identical extents
// in every other axis, shrinking the representation. It is a heuristic, not
// a canonicalization.
func (s *IndexSpace) coalesce() {
	if len(s.spans) > coalesceLimit {
		return
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(s.spans); i++ {
			for j := i + 1; j < len(s.spans); j++ {
				if m, ok := tryMerge(s.spans[i], s.spans[j]); ok {
					s.spans[i] = m
					s.spans = append(s.spans[:j], s.spans[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
}

// tryMerge merges two rectangles if their union is exactly a rectangle.
func tryMerge(a, b Rect) (Rect, bool) {
	diffAxis := -1
	for i := 0; i < int(a.Dim()); i++ {
		if a.Lo.C[i] == b.Lo.C[i] && a.Hi.C[i] == b.Hi.C[i] {
			continue
		}
		if diffAxis >= 0 {
			return Rect{}, false
		}
		diffAxis = i
	}
	if diffAxis < 0 {
		return a, true // identical
	}
	lo, hi := a, b
	if b.Lo.C[diffAxis] < a.Lo.C[diffAxis] {
		lo, hi = b, a
	}
	if lo.Hi.C[diffAxis]+1 >= hi.Lo.C[diffAxis] {
		m := lo
		m.Hi.C[diffAxis] = max64(lo.Hi.C[diffAxis], hi.Hi.C[diffAxis])
		return m, true
	}
	return Rect{}, false
}

// UnionMany returns the union of many index spaces. For 1-D inputs it merges
// the operands' sorted span lists and then mergeRuns1D coalesces them
// (O(n log k) over k operands, O(n) when they arrive in order), the
// constructor for unions of many sparse subregions (e.g. an aliased
// ghost partition's footprint). Other dimensions carve each incoming span
// against the accumulated union in one growing buffer — unlike the iterative
// out.Union(s) formulation, the accumulated span list is never copied, so
// a union over n mostly-disjoint spans costs O(n²) cheap bounding-box
// tests instead of O(n²) span-list rebuilds with their allocations.
func UnionMany(dim int8, spaces []IndexSpace) IndexSpace {
	total := spanCount(spaces)
	if dim != 1 {
		useIdx := total > xIndexThreshold
		var ix xspanIndex
		var cand []int32
		var acc []Rect
		var work, spare []Rect
		for _, sp := range spaces {
			for _, r := range sp.spans {
				// Carve r down to the pieces not already covered, then keep
				// them. acc stays pairwise disjoint throughout. The index
				// narrows the carve to accumulated spans whose axis-0 extent
				// overlaps r; visiting them in list order keeps the output
				// identical to the full scan.
				work = append(work[:0], r)
				if useIdx {
					cand = ix.candidates(cand[:0], r.Lo.C[0], r.Hi.C[0])
				}
				nAcc := len(acc)
				if useIdx {
					nAcc = len(cand)
				}
				for ci := 0; ci < nAcc && len(work) > 0; ci++ {
					a := acc[ci]
					if useIdx {
						a = acc[cand[ci]]
					}
					touched := false
					for i := range work {
						if work[i].Overlaps(a) {
							touched = true
							break
						}
					}
					if !touched {
						continue
					}
					next := spare[:0]
					for _, w := range work {
						if w.Overlaps(a) {
							next = appendSubtractRect(next, w, a)
						} else {
							next = append(next, w)
						}
					}
					work, spare = next, work
				}
				for _, w := range work {
					if useIdx {
						ix.add(int32(len(acc)), w)
					}
					acc = append(acc, w)
				}
			}
		}
		out := IndexSpace{dim: dim, spans: acc}
		out.coalesce()
		return out
	}
	if total == 0 {
		return IndexSpace{dim: 1}
	}
	// Every operand's spans are already sorted, so ivs starts as one sorted
	// run per operand, and the runs are in order unless an operand starts
	// below the last span before it. Runs out of order are merged pairwise,
	// back and forth between ivs and a spare half of the same buffer, until
	// one is left: ceil(log2 k) linear passes over k operands, not a sort.
	inOrder, last := true, []Rect(nil)
	for _, s := range spaces {
		if len(s.spans) == 0 {
			continue
		}
		if len(last) > 0 && s.spans[0].Lo.C[0] < last[len(last)-1].Lo.C[0] {
			inOrder = false
			break
		}
		last = s.spans
	}
	size := total
	if !inOrder {
		size *= 2
	}
	buf := make([][2]int64, size)
	ivs, spare := buf[:total], buf[total:]
	i := 0
	for _, s := range spaces {
		for _, r := range s.spans {
			ivs[i] = [2]int64{r.Lo.C[0], r.Hi.C[0]}
			i++
		}
	}
	if !inOrder {
		for w := 1; w < len(spaces); w *= 2 {
			off := 0
			for lo := 0; lo < len(spaces); lo += 2 * w {
				mid, hi := min(lo+w, len(spaces)), min(lo+2*w, len(spaces))
				a, b := spanCount(spaces[lo:mid]), spanCount(spaces[mid:hi])
				merge1D(spare[off:off+a+b], ivs[off:off+a], ivs[off+a:off+a+b])
				off += a + b
			}
			ivs, spare = spare, ivs
		}
	}
	return IndexSpace{dim: 1, spans: mergeRuns1D(ivs)}
}

// spanCount returns the number of spans over the given spaces.
func spanCount(spaces []IndexSpace) int {
	n := 0
	for _, s := range spaces {
		n += len(s.spans)
	}
	return n
}

// merge1D merges the intervals of a and b, each sorted by lower bound, into
// out, which holds exactly both.
func merge1D(out, a, b [][2]int64) {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if b[j][0] < a[i][0] {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

func byLo1D(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) }

// mergeRuns1D returns the maximal runs covered by the given non-empty list
// of [lo, hi] intervals, sorted by lower bound, which it merges in place: a
// 1-D span is two coordinates, so the work moves 16 bytes per span instead
// of a Rect's 64, and the result is allocated once the number of runs is
// known.
func mergeRuns1D(ivs [][2]int64) []Rect {
	n := 0 // ivs[:n+1] are the runs so far
	for _, iv := range ivs[1:] {
		if iv[0] <= ivs[n][1]+1 {
			ivs[n][1] = max(ivs[n][1], iv[1])
		} else {
			n++
			ivs[n] = iv
		}
	}
	spans := make([]Rect, n+1)
	for i, iv := range ivs[:n+1] {
		spans[i] = R1(iv[0], iv[1])
	}
	return spans
}

// Factor2 returns the most-square factorization a*b = n with a >= b, the
// standard tile-grid shape for weak scaling over n nodes.
func Factor2(n int64) (a, b int64) {
	b = 1
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			b = d
		}
	}
	return n / b, b
}
