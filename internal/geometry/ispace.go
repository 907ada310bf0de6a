package geometry

import (
	"fmt"
	"slices"
	"sort"
)

// IndexSpace is a (possibly sparse) set of points, represented as a list of
// pairwise-disjoint rectangles (spans) of a common dimensionality. Dense
// index spaces are a single span. The representation is not unique, but all
// operations preserve the disjointness invariant, and Equal compares the
// underlying point sets rather than the representations.
//
// The spans are stored flat: 2·dim bounds per span, its lo coordinates and
// then its hi coordinates, so a 1-D span takes 16 bytes. 1-D spans are
// sorted by lower bound, no span is empty, and the list is never written
// once its space is returned, so results may share an operand's storage.
type IndexSpace struct {
	dim int8
	b   []int64
}

// NewIndexSpace returns the dense index space covering r.
func NewIndexSpace(r Rect) IndexSpace {
	if r.Empty() {
		return IndexSpace{dim: r.Dim()}
	}
	return IndexSpace{dim: r.Dim(), b: appendSpan(nil, r)}
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
		xs := make([]int64, len(pts))
		for i, p := range pts {
			xs[i] = p.C[0]
		}
		slices.Sort(xs)
		return sizedRuns(func(r runs1D) runs1D {
			for _, x := range xs {
				r.add(x, x)
			}
			return r
		})
	}
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, Point.compare)
	var b []int64
	run := Rect{sorted[0], sorted[0]}
	last := int(dim) - 1
	for _, p := range sorted[1:] {
		if p == run.Hi {
			continue // duplicate
		}
		// p follows run.Hi in sort order, so with the same other
		// coordinates p.C[last] > run.Hi.C[last] and the decrement is safe.
		q := p
		q.C[last] = run.Hi.C[last]
		if q == run.Hi && p.C[last]-1 == q.C[last] {
			run.Hi = p
			continue
		}
		b = appendSpan(b, run)
		run = Rect{p, p}
	}
	return IndexSpace{dim: dim, b: appendSpan(b, run)}
}

// FromDisjointRects builds an index space from rectangles the caller
// guarantees are pairwise disjoint, skipping the quadratic union pass. It
// is the constructor large structured partitions use (e.g. the ghost bands
// of a 1024-tile grid). Empty rectangles are dropped; disjointness is the
// caller's responsibility and is verified only in tests.
func FromDisjointRects(dim int8, rects []Rect) IndexSpace {
	b := make([]int64, 0, 2*int(dim)*len(rects))
	for _, r := range rects {
		if !r.Empty() {
			b = appendSpan(b, r)
		}
	}
	if dim == 1 {
		sortSpans1D(b)
	}
	return IndexSpace{dim: dim, b: b}
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

// w returns the number of bounds per span.
func (s IndexSpace) w() int { return 2 * int(s.dim) }

// NumSpans returns the number of disjoint rectangles making up the space.
func (s IndexSpace) NumSpans() int {
	if len(s.b) == 0 {
		return 0
	}
	return len(s.b) / s.w()
}

// Span returns the i-th of the space's rectangles, 0 <= i < NumSpans().
func (s IndexSpace) Span(i int) Rect {
	r := Rect{Lo: Point{Dim: s.dim}, Hi: Point{Dim: s.dim}}
	d := int(s.dim)
	b := s.b[2*d*i : 2*d*(i+1)]
	for k := 0; k < d; k++ {
		r.Lo.C[k], r.Hi.C[k] = b[k], b[d+k]
	}
	return r
}

// Same reports whether s and t are the same value, not merely equal as
// sets: they share their span list.
func (s IndexSpace) Same(t IndexSpace) bool {
	return s.dim == t.dim && len(s.b) == len(t.b) && (len(s.b) == 0 || &s.b[0] == &t.b[0])
}

// appendSpan appends r's bounds to b in one append.
func appendSpan(b []int64, r Rect) []int64 {
	d := int(r.Dim())
	var v [2 * MaxDim]int64
	copy(v[:d], r.Lo.C[:d])
	copy(v[d:2*d], r.Hi.C[:d])
	return append(b, v[:2*d]...)
}

// Empty reports whether the space contains no points.
func (s IndexSpace) Empty() bool { return len(s.b) == 0 }

// Volume returns the number of points in the space.
func (s IndexSpace) Volume() int64 {
	var v int64
	d := int(s.dim)
	for o := 0; o < len(s.b); o += 2 * d {
		n := int64(1)
		for k := o; k < o+d; k++ {
			n *= s.b[k+d] - s.b[k] + 1
		}
		v += n
	}
	return v
}

// Bounds returns the bounding rectangle of the space.
func (s IndexSpace) Bounds() Rect {
	if n := len(s.b); s.dim == 1 && n > 0 {
		return R1(s.b[0], s.b[n-1]) // sorted and disjoint
	}
	out := EmptyRect(s.dim)
	for i := 0; i < s.NumSpans(); i++ {
		out = out.Union(s.Span(i))
	}
	return out
}

// Dense reports whether the space is exactly one rectangle.
func (s IndexSpace) Dense() bool { return s.NumSpans() == 1 }

// Contains reports whether p is in the space.
func (s IndexSpace) Contains(p Point) bool {
	for i := 0; i < s.NumSpans(); i++ {
		if s.Span(i).Contains(p) {
			return true
		}
	}
	return false
}

// Each calls fn for every point in the space (span by span, row-major
// within each span), stopping early if fn returns false.
func (s IndexSpace) Each(fn func(Point) bool) {
	for i := 0; i < s.NumSpans(); i++ {
		stopped := false
		s.Span(i).Each(func(p Point) bool {
			stopped = !fn(p)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// EachRow calls fn with the first point and length of every row (see
// Rect.EachRow) of every span, in the order Each visits the points.
func (s IndexSpace) EachRow(fn func(first Point, n int64) bool) {
	for i := 0; i < s.NumSpans(); i++ {
		stopped := false
		s.Span(i).EachRow(func(p Point, n int64) bool {
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

// sortSpans1D sorts a 1-D span list in place by lower bound, unless it
// already is. Every constructor and operation keeps 1-D lists sorted, so
// the sweeps never re-sort; anything sorted or merged in place must be a
// list the caller itself allocated.
func sortSpans1D(b []int64) {
	for i := 2; i < len(b); i += 2 {
		if b[i] < b[i-2] {
			sort.Sort(byLo1D(b))
			return
		}
	}
}

// byLo1D orders a flat 1-D span list by lower bound.
type byLo1D []int64

func (b byLo1D) Len() int           { return len(b) / 2 }
func (b byLo1D) Less(i, j int) bool { return b[2*i] < b[2*j] }
func (b byLo1D) Swap(i, j int) {
	b[2*i], b[2*i+1], b[2*j], b[2*j+1] = b[2*j], b[2*j+1], b[2*i], b[2*i+1]
}

// touches reports whether a span starting at lo continues a run ending at
// hi (lo <= hi+1), without computing past the top of int64.
func touches(hi, lo int64) bool { return lo <= hi || lo-1 == hi }

// overlap reports whether the spans x and y (2·d bounds each) share a point.
func overlap(x, y []int64) bool {
	d := len(x) / 2
	for k := 0; k < d; k++ {
		if max(x[k], y[k]) > min(x[d+k], y[d+k]) {
			return false
		}
	}
	return true
}

// Intersect returns the set intersection of s and t.
func (s IndexSpace) Intersect(t IndexSpace) IndexSpace {
	s.mustMatch(t)
	if s.dim == 1 && s.NumSpans()+t.NumSpans() > sweepThreshold {
		return sized1D(intersect1D, s.b, t.b)
	}
	var b []int64
	w, d := s.w(), int(s.dim)
	for i := 0; i < len(s.b); i += w {
		for j := 0; j < len(t.b); j += w {
			x, y := s.b[i:i+w], t.b[j:j+w]
			if overlap(x, y) {
				var c [2 * MaxDim]int64
				for k := 0; k < d; k++ {
					c[k], c[d+k] = max(x[k], y[k]), min(x[d+k], y[d+k])
				}
				b = append(b, c[:w]...)
			}
		}
	}
	if s.dim == 1 {
		sortSpans1D(b)
	}
	return IndexSpace{dim: s.dim, b: b}
}

// sized1D runs a 1-D sweep twice: a counting pass sizes the result before
// the second pass writes it, so a result is one allocation of exactly its
// length and an empty one is none.
func sized1D(sweep func(out, a, b []int64) int, a, b []int64) IndexSpace {
	n := sweep(nil, a, b)
	if n == 0 {
		return IndexSpace{dim: 1}
	}
	out := make([]int64, n)
	sweep(out, a, b)
	return IndexSpace{dim: 1, b: out}
}

// The 1-D sweeps walk flat lists by offset (a span is at an even offset
// o, bounds [o] and [o+1]), write their result to out, or only count it
// when out is nil, and return the number of bounds written.

// intersect1D is the sorted-sweep intersection for large 1-D span lists:
// the pieces common to a and b. It gallops like Overlaps, so one span
// against thousands costs a search rather than a scan.
func intersect1D(out, a, b []int64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i+1] < b[j]:
			i = seek1D(a, i, b[j])
		case b[j+1] < a[i]:
			j = seek1D(b, j, a[i])
		default:
			if out != nil {
				out[n], out[n+1] = max(a[i], b[j]), min(a[i+1], b[j+1])
			}
			n += 2
			if a[i+1] < b[j+1] {
				i += 2
			} else {
				j += 2
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
	a, b := s.b, t.b
	if s.dim == 1 {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i+1] < b[j]:
				i = seek1D(a, i, b[j])
			case b[j+1] < a[i]:
				j = seek1D(b, j, a[i])
			default:
				return true
			}
		}
		return false
	}
	w := s.w()
	for i := 0; i < len(a); i += w {
		for j := 0; j < len(b); j += w {
			if overlap(a[i:i+w], b[j:j+w]) {
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
	a, b := s.b, t.b
	if d := int(s.dim); d != 1 {
		for i := 0; i < len(a); i += 2 * d {
			for j := 0; j < len(b); j += 2 * d {
				n := int64(1)
				for k := 0; k < d && n > 0; k++ {
					n *= max(0, min(a[i+d+k], b[j+d+k])-max(a[i+k], b[j+k])+1)
				}
				v += n
			}
		}
		return v
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i+1] < b[j]:
			i = seek1D(a, i, b[j])
		case b[j+1] < a[i]:
			j = seek1D(b, j, a[i])
		default:
			v += min(a[i+1], b[j+1]) - max(a[i], b[j]) + 1
			if a[i+1] < b[j+1] {
				i += 2
			} else {
				j += 2
			}
		}
	}
	return v
}

// seek1D returns the offset of the first span after the one at offset from
// that ends at or after x, or len(b): an exponential probe then a binary
// search, O(log distance). The span at from must end before x.
func seek1D(b []int64, from int, x int64) int {
	lo, step := from, 2
	for lo+step < len(b) && b[lo+step+1] < x {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(b))
	for lo+2 < hi {
		if mid := lo + (hi-lo)/4*2; b[mid+1] < x {
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
	if s.dim == 1 && s.NumSpans()+t.NumSpans() > sweepThreshold {
		return sized1D(subtract1D, s.b, t.b)
	}
	// Carve with double buffering: a subtrahend span that overlaps nothing
	// leaves the list untouched (no rebuild). Span order is identical to
	// the naive rebuild, so results are representation-identical, not
	// just set-equal.
	w := s.w()
	cur := s.b
	owned := false // cur is a scratch buffer of ours, not s.b
	var spare []int64
	for j := 0; j < len(t.b); j += w {
		next, carved := carve(spare[:0], cur, t.b[j:j+w])
		if !carved {
			continue
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
		if s.NumSpans() > coalesceLimit {
			return s
		}
		cur = slices.Clone(cur)
	}
	out := IndexSpace{dim: s.dim, b: cur}
	out.coalesce()
	if s.dim == 1 {
		sortSpans1D(out.b)
	}
	return out
}

// carve appends to into the pieces of the spans in work outside the span a
// and reports true, or reports false and appends nothing when a overlaps
// none of them.
func carve(into, work, a []int64) ([]int64, bool) {
	w, i := len(a), 0
	for i < len(work) && !overlap(work[i:i+w], a) {
		i += w
	}
	if i == len(work) {
		return into, false
	}
	into = append(into, work[:i]...)
	for ; i < len(work); i += w {
		into = appendSubtract(into, work[i:i+w], a)
	}
	return into, true
}

// subtract1D is the sorted-sweep difference for large 1-D span lists: a
// minus b. Stretches of a that no span of b reaches are found by galloping
// and copied whole.
func subtract1D(out, a, b []int64) int {
	n, j := 0, 0
	emit := func(lo, hi int64) {
		if out != nil {
			out[n], out[n+1] = lo, hi
		}
		n += 2
	}
	for i := 0; i < len(a); {
		lo, hi := a[i], a[i+1]
		if j < len(b) && b[j+1] < lo {
			j = seek1D(b, j, lo)
		}
		if j == len(b) || hi < b[j] {
			end := len(a)
			if j < len(b) {
				end = seek1D(a, i, b[j])
			}
			if out != nil {
				copy(out[n:], a[i:end])
			}
			n += end - i
			i = end
			continue
		}
		// b[j] is the first subtrahend span reaching a[i]; the last one may
		// reach the next span of a too, so j stays. open: [cur, hi] is not
		// yet known to be covered.
		cur, open := lo, true
		for k := j; open && k < len(b) && b[k] <= hi; k += 2 {
			if b[k] > cur {
				emit(cur, b[k]-1)
			}
			if open = b[k+1] < hi; open {
				cur = b[k+1] + 1
			}
		}
		if open {
			emit(cur, hi)
		}
		i += 2
	}
	return n
}

// Union returns the set union of s and t.
func (s IndexSpace) Union(t IndexSpace) IndexSpace {
	s.mustMatch(t)
	diff := t.Subtract(s)
	b := make([]int64, 0, len(s.b)+len(diff.b))
	x, y := s.b, diff.b
	for s.dim == 1 && len(x) > 0 && len(y) > 0 {
		// Two sorted lists: merging them here leaves nothing to sort below.
		if x[0] < y[0] {
			b, x = append(b, x[0], x[1]), x[2:]
		} else {
			b, y = append(b, y[0], y[1]), y[2:]
		}
	}
	out := IndexSpace{dim: s.dim, b: append(append(b, x...), y...)}
	out.coalesce()
	if s.dim == 1 {
		sortSpans1D(out.b)
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
	if s.dim == 1 && s.NumSpans()+t.NumSpans() > sweepThreshold {
		return covers1D(s.b, t.b)
	}
	w, d := s.w(), int(s.dim)
	var ix *xspanIndex
	if s.dim != 1 && s.NumSpans() > xIndexThreshold {
		ix = &xspanIndex{}
		for i := 0; i < s.NumSpans(); i++ {
			ix.add(int32(i), s.b[i*w], s.b[i*w+d])
		}
	}
	var cand []int32
	for o := 0; o < len(t.b); o += w {
		if ix != nil {
			cand = ix.candidates(cand[:0], t.b[o], t.b[o+d])
		}
		if !s.covers(t.b[o:o+w], ix != nil, cand) {
			return false
		}
	}
	return true
}

// covers1D is ContainsAll's sweep over large sorted 1-D lists: it gallops to
// the spans of a around each span of b and stops at the first point of b
// they leave out.
func covers1D(a, b []int64) bool {
	j := 0
	for o := 0; o < len(b); o += 2 {
		lo, hi := b[o], b[o+1]
		if j < len(a) && a[j+1] < lo {
			j = seek1D(a, j, lo)
		}
		// Spans of a may touch, so several can cover [lo, hi] between them;
		// the last one may cover the next span of b too, so j stays on it.
		for cur := lo; ; j += 2 {
			if j == len(a) || cur < a[j] {
				return false
			}
			if a[j+1] >= hi {
				break
			}
			cur = a[j+1] + 1
		}
	}
	return true
}

// covers reports whether the span r lies entirely within s, by carving r
// with s's spans until nothing remains (covered) or the spans run out. With
// among, only the spans named by idxs (ascending) are tried: the others are
// known not to overlap r.
func (s IndexSpace) covers(r []int64, among bool, idxs []int32) bool {
	w := len(r)
	var bufA, bufB [16 * 2 * MaxDim]int64
	work, spare := append(bufA[:0], r...), bufB[:0]
	n := s.NumSpans()
	if among {
		n = len(idxs)
	}
	for k := 0; k < n; k++ {
		i := k
		if among {
			i = int(idxs[k])
		}
		if next, carved := carve(spare[:0], work, s.b[i*w:(i+1)*w]); carved {
			if work, spare = next, work; len(work) == 0 {
				return true
			}
		}
	}
	return false
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

// add files span i, whose axis-0 extent is [lo, hi].
func (ix *xspanIndex) add(i int32, lo, hi int64) {
	k := [2]int64{lo, hi}
	if ix.keys == nil {
		ix.keys = make(map[[2]int64]int32)
	}
	gi, ok := ix.keys[k]
	if !ok {
		gi = int32(len(ix.groups))
		ix.keys[k] = gi
		ix.groups = append(ix.groups, xspanGroup{lo: lo, hi: hi})
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
	b := append(make([]byte, 0, 2+16*s.NumSpans()), '{')
	for i := 0; i < s.NumSpans(); i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = s.Span(i).appendTo(b)
	}
	return string(append(b, '}'))
}

func (s IndexSpace) mustMatch(t IndexSpace) {
	if s.dim != t.dim {
		panic(fmt.Sprintf("geometry: index space dimension mismatch %d vs %d", s.dim, t.dim))
	}
}

// appendSubtract appends the span a minus the span b (2·d bounds each) to
// out as disjoint spans. The standard axis-by-axis carve: for each axis,
// peel off the slabs of a that lie strictly below and strictly above b on
// that axis, then narrow a to b's extent on that axis and continue with
// the next axis. Appending into a caller-owned buffer keeps the Subtract
// and ContainsAll hot loops free of per-pair allocation.
func appendSubtract(out, a, b []int64) []int64 {
	if !overlap(a, b) {
		return append(out, a...)
	}
	d := len(a) / 2
	var rem [2 * MaxDim]int64
	copy(rem[:], a)
	for i := 0; i < d; i++ {
		lo, hi := max(a[i], b[i]), min(a[d+i], b[d+i]) // a∩b on axis i
		if rem[i] < lo {
			piece := rem
			piece[d+i] = lo - 1
			out = append(out, piece[:2*d]...)
			rem[i] = lo
		}
		if rem[d+i] > hi {
			piece := rem
			piece[i] = hi + 1
			out = append(out, piece[:2*d]...)
			rem[d+i] = hi
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
	w := s.w()
	if s.NumSpans() > coalesceLimit {
		return
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(s.b); i += w {
			for j := i + w; j < len(s.b); j += w {
				if tryMerge(s.b[i:i+w], s.b[j:j+w]) {
					s.b = append(s.b[:j], s.b[j+w:]...)
					merged = true
					break outer
				}
			}
		}
	}
}

// tryMerge merges the span b into the span a (2·d bounds each, a written in
// place) if their union is exactly a rectangle.
func tryMerge(a, b []int64) bool {
	d := len(a) / 2
	diff := -1
	for i := 0; i < d; i++ {
		if a[i] == b[i] && a[d+i] == b[d+i] {
			continue
		}
		if diff >= 0 {
			return false
		}
		diff = i
	}
	if diff < 0 {
		return true // identical
	}
	lo, hi := a, b
	if b[diff] < a[diff] {
		lo, hi = b, a
	}
	if !touches(lo[d+diff], hi[diff]) {
		return false
	}
	a[diff], a[d+diff] = lo[diff], max(lo[d+diff], hi[d+diff])
	return true
}

// UnionMany returns the union of many index spaces. For 1-D inputs it
// merges the operands' sorted span lists into maximal runs (O(n) when they
// arrive in order, O(n log k) over k operands otherwise), the constructor
// for unions of many sparse subregions (e.g. an aliased ghost partition's
// footprint); past 16 operands the heap that merges them is allocated
// too, otherwise the result is the only allocation. Other dimensions carve
// each incoming span against the accumulated union in one growing buffer —
// unlike the iterative out.Union(s) formulation, the accumulated span list
// is never copied, so a union over n mostly-disjoint spans costs O(n²)
// cheap bounding-box tests instead of O(n²) span-list rebuilds with their
// allocations.
func UnionMany(dim int8, spaces []IndexSpace) IndexSpace {
	if dim == 1 {
		var stack [16][]int64
		heap := stack[:0]
		if len(spaces) > len(stack) {
			heap = make([][]int64, 0, len(spaces))
		}
		return sizedRuns(func(r runs1D) runs1D { return union1D(r, spaces, heap) })
	}
	w, d, total := 2*int(dim), int(dim), 0
	for _, s := range spaces {
		total += s.NumSpans()
	}
	useIdx := total > xIndexThreshold
	var ix xspanIndex
	var cand []int32
	var acc, work, spare []int64
	for _, sp := range spaces {
		for o := 0; o < len(sp.b); o += w {
			// Carve the span down to the pieces not already covered, then
			// keep them. acc stays pairwise disjoint throughout. The index
			// narrows the carve to accumulated spans whose axis-0 extent
			// overlaps it; visiting them in list order keeps the output
			// identical to the full scan.
			work = append(work[:0], sp.b[o:o+w]...)
			n := len(acc) / w
			if useIdx {
				cand = ix.candidates(cand[:0], sp.b[o], sp.b[o+d])
				n = len(cand)
			}
			for k := 0; k < n && len(work) > 0; k++ {
				i := k
				if useIdx {
					i = int(cand[k])
				}
				if next, carved := carve(spare[:0], work, acc[i*w:(i+1)*w]); carved {
					work, spare = next, work
				}
			}
			for i := 0; i < len(work); i += w {
				if useIdx {
					ix.add(int32(len(acc)/w), work[i], work[i+d])
				}
				acc = append(acc, work[i:i+w]...)
			}
		}
	}
	out := IndexSpace{dim: dim, b: acc}
	out.coalesce()
	return out
}

// union1D feeds the spans of spaces to r in lower-bound order through
// heap, a buffer of capacity len(spaces): a min-heap of the operands'
// remaining span lists by first lower bound. Operands that arrive in order
// already form a heap whose top stays put, so each span costs a compare
// with the top's two children.
func union1D(r runs1D, spaces []IndexSpace, heap [][]int64) runs1D {
	h := heap[:0]
	for _, s := range spaces {
		if len(s.b) > 0 {
			h = append(h, s.b)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown1D(h, i)
	}
	for len(h) > 0 {
		r.add(h[0][0], h[0][1])
		if h[0] = h[0][2:]; len(h[0]) == 0 {
			h[0], h = h[len(h)-1], h[:len(h)-1]
		}
		siftDown1D(h, 0)
	}
	return r
}

// siftDown1D restores the min-heap order, by first lower bound, of the
// span lists in h below i.
func siftDown1D(h [][]int64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1][0] < h[c][0] {
			c++
		}
		if h[i][0] <= h[c][0] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sizedRuns builds the 1-D space of the maximal runs of the spans feed
// adds to a runs1D in lower-bound order: once to count them, once to write
// them into a result of exactly their size.
func sizedRuns(feed func(runs1D) runs1D) IndexSpace {
	r := feed(runs1D{})
	if r.end() == 0 {
		return IndexSpace{dim: 1}
	}
	r = feed(runs1D{out: make([]int64, r.end())})
	r.end()
	return IndexSpace{dim: 1, b: r.out}
}

// runs1D coalesces 1-D spans arriving in lower-bound order into maximal
// runs, writing them to out, or only counting them when out is nil.
type runs1D struct {
	out    []int64
	n      int   // bounds of the runs so far, the open one included
	lo, hi int64 // the open run, when n > 0
}

func (r *runs1D) add(lo, hi int64) {
	if r.n > 0 && touches(r.hi, lo) {
		r.hi = max(r.hi, hi)
		return
	}
	r.end()
	r.lo, r.hi, r.n = lo, hi, r.n+2
}

// end writes the open run and returns the number of bounds.
func (r *runs1D) end() int {
	if r.n > 0 && r.out != nil {
		r.out[r.n-2], r.out[r.n-1] = r.lo, r.hi
	}
	return r.n
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
