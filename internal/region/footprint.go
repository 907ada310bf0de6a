package region

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/geometry"
)

// Footprint resolves points to storage: given a point it answers which part
// (argument) holds it and at which slot of that part's store. It is built
// once — for a layout, for one task argument, or for a run of consecutive
// task arguments (a task's private/shared/ghost view of one collection) —
// so that the per-point work left for a kernel's inner loop is a bounds
// check against the last span hit and, on a miss, a bucket lookup on the
// first coordinate and a binary search over the few spans it leaves.
//
// A point contained in several parts resolves to the first of them, in the
// order the parts were given; a point in none of them panics. A Footprint
// is immutable after construction and safe for concurrent use; the
// last-hit cache lives with the caller, in a Cursor.
type Footprint struct {
	dim   int8
	shift uint8 // bucket width is 1<<shift first coordinates
	x0    int64 // spans[0].lo[0]
	// bucket[b] counts the spans whose lo[0] is below x0 + b<<shift; the
	// last entry is len(spans). Nil for a footprint of at most fewSpans.
	bucket []int32
	spans  []fspan               // pairwise disjoint, sorted by lo
	parts  []geometry.IndexSpace // what each part contributes, for diagnostics
}

// fewSpans is the span count up to which a footprint has no bucket table:
// its binary search takes at most a few steps.
const fewSpans = 8

// Part is one argument of a footprint: the points it contributes and the
// layout of the store that holds them. Over must be contained in the
// layout's index space.
type Part struct {
	Over   geometry.IndexSpace
	Layout *Layout
}

// fspan is a rectangle [lo, lo+ext] of one part that is row-major in that
// part's store: the slot of a point p in it is base + Σ (p.C[i]-lo[i]) *
// stride[i]. Dimensions beyond dim have lo, ext and stride zero, as points
// have zero coordinates there, so every span is handled as 3-D.
type fspan struct {
	lo     [geometry.MaxDim]int64
	ext    [geometry.MaxDim]uint64
	stride [geometry.MaxDim]int64
	base   int64
	part   int32
	dim    int8
}

// contains reports whether p lies in the span, in one pass without a loop
// so that it inlines.
func (s *fspan) contains(p *geometry.Point) bool {
	d0, d1, d2 := p.C[0]-s.lo[0], p.C[1]-s.lo[1], p.C[2]-s.lo[2]
	return uint64(d0) <= s.ext[0] && uint64(d1) <= s.ext[1] && uint64(d2) <= s.ext[2] && p.Dim == s.dim
}

func (s *fspan) rect() geometry.Rect {
	r := geometry.Rect{Lo: geometry.Point{C: s.lo, Dim: s.dim}, Hi: geometry.Point{C: s.lo, Dim: s.dim}}
	for i := range s.ext {
		r.Hi.C[i] += int64(s.ext[i])
	}
	return r
}

// cut returns the part of s inside r, for part.
func (s *fspan) cut(r geometry.Rect, part int) fspan {
	c := *s
	c.part = int32(part)
	for i := 0; i < int(s.dim); i++ {
		c.base += (r.Lo.C[i] - s.lo[i]) * s.stride[i]
		c.lo[i] = r.Lo.C[i]
		c.ext[i] = uint64(r.Hi.C[i] - r.Lo.C[i])
	}
	return c
}

// layoutSpan is the footprint entry of a layout's own span; NewLayout sets
// its base slot once the spans are in slot order.
func layoutSpan(sp geometry.Rect) fspan {
	s := fspan{lo: sp.Lo.C, dim: sp.Dim()}
	st := int64(1)
	for i := int(s.dim) - 1; i >= 0; i-- {
		s.stride[i] = st
		s.ext[i] = uint64(sp.Hi.C[i] - sp.Lo.C[i])
		st *= sp.Hi.C[i] - sp.Lo.C[i] + 1
	}
	return s
}

// NewFootprint resolves the given parts, in first-match order. A single
// part that covers its whole layout shares the layout's own footprint.
func NewFootprint(parts ...Part) *Footprint {
	if len(parts) == 1 && parts[0].Over.Same(parts[0].Layout.ispace) {
		return &parts[0].Layout.fp
	}
	fp := &Footprint{dim: parts[0].Over.Dim(), parts: make([]geometry.IndexSpace, len(parts))}
	n := 0
	for _, pt := range parts {
		n += pt.Over.NumSpans()
	}
	fp.spans = make([]fspan, 0, n) // exact unless parts overlap or layouts are sparse
	var covered geometry.IndexSpace
	for i, pt := range parts {
		fp.parts[i] = pt.Over
		over := pt.Over
		if i == 0 {
			covered = over
		} else {
			if over.Overlaps(covered) {
				over = over.Subtract(covered) // earlier parts win
			}
			if i+1 < len(parts) {
				covered = covered.Union(pt.Over)
			}
		}
		if over.Same(pt.Layout.ispace) {
			// The part is its whole store: the layout's spans as they are.
			for _, ls := range pt.Layout.fp.spans {
				ls.part = int32(i)
				fp.spans = append(fp.spans, ls)
			}
			continue
		}
		for si := 0; si < over.NumSpans(); si++ {
			sp := over.Span(si)
			// Split the span along the layout's spans: each piece is
			// row-major with its layout span's strides.
			vol := int64(0)
			for li := range pt.Layout.fp.spans {
				ls := &pt.Layout.fp.spans[li]
				if piece := sp.Intersect(ls.rect()); !piece.Empty() {
					fp.spans = append(fp.spans, ls.cut(piece, i))
					vol += piece.Volume()
				}
			}
			if vol != sp.Volume() {
				panic(fmt.Sprintf("region: %v is not contained in layout %v", pt.Over, pt.Layout.ispace))
			}
		}
	}
	fp.indexSpans()
	return fp
}

// indexSpans sorts the spans by lower corner and, past fewSpans, builds the
// bucket table over the first coordinate: at most two entries per span, so
// its size depends on the span count, not on the coordinates' extent.
// Offsets are taken as uint64 differences from x0, the smallest lo[0], so
// they are exact across the whole int64 range.
func (fp *Footprint) indexSpans() {
	spans := fp.spans
	slices.SortFunc(spans, byLo)
	n := len(spans)
	if n <= fewSpans {
		return
	}
	fp.x0 = spans[0].lo[0]
	last := uint64(spans[n-1].lo[0]) - uint64(fp.x0)
	for last>>fp.shift >= uint64(2*n) { // at most 2n buckets
		fp.shift++
	}
	nb := int(last>>fp.shift) + 1
	fp.bucket = make([]int32, nb+1)
	j := 0
	for b := 0; b < nb; b++ {
		for j < n && (uint64(spans[j].lo[0])-uint64(fp.x0))>>fp.shift < uint64(b) {
			j++
		}
		fp.bucket[b] = int32(j)
	}
	fp.bucket[nb] = int32(n)
}

// byLo orders spans by lexicographic lower bound.
func byLo(a, b fspan) int { return slices.Compare(a.lo[:], b.lo[:]) }

// before reports whether a precedes b lexicographically.
func before(a, b *[geometry.MaxDim]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// find returns the span containing p, or nil, by binary search for the
// last span starting at or before p and a scan back from it: in one
// dimension disjoint sorted intervals leave one candidate; in more, a span
// that starts on an earlier row can still contain p. The bucket of p's
// first coordinate brackets the search: every span counted below it starts
// before p, and every span past it after p, so the bracketed search ends
// where the full one does.
func (fp *Footprint) find(p *geometry.Point) *fspan {
	if p.Dim != fp.dim {
		panic(fmt.Sprintf("geometry: dimension mismatch %d vs %d", p.Dim, fp.dim))
	}
	spans := fp.spans
	lo, hi := 0, len(spans)
	if fp.bucket != nil {
		if x := p.C[0]; x < fp.x0 {
			hi = 0
		} else if b := (uint64(x) - uint64(fp.x0)) >> fp.shift; b < uint64(len(fp.bucket)-1) {
			lo, hi = int(fp.bucket[b]), int(fp.bucket[b+1])
		} else {
			lo = hi
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(&p.C, &spans[mid].lo) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for j := lo - 1; j >= 0; j-- {
		if spans[j].contains(p) {
			return &spans[j]
		}
		if fp.dim == 1 {
			break
		}
	}
	return nil
}

// Cursor returns a new cursor over the footprint.
func (fp *Footprint) Cursor() Cursor {
	c := Cursor{fp: fp}
	if len(fp.spans) > 0 {
		c.last = &fp.spans[0]
	}
	return c
}

// Locate returns the part holding p and p's slot in that part's store. It
// panics if p is outside the footprint. Loops use a Cursor instead.
func (fp *Footprint) Locate(p geometry.Point) (part int, slot int64) {
	c := fp.Cursor()
	return c.Locate(&p)
}

// String lists the index space of every part, in order.
func (fp *Footprint) String() string {
	parts := make([]string, len(fp.parts))
	for i, is := range fp.parts {
		parts[i] = is.String()
	}
	return strings.Join(parts, " | ")
}

// Cursor is one caller's view of a footprint: it remembers the span its
// last lookup hit and tries that span first. It is a value for a kernel's
// stack, not safe for concurrent use.
type Cursor struct {
	fp   *Footprint
	last *fspan
}

// Locate returns the part holding p and p's slot in that part's store. It
// panics if p is outside the footprint. p is passed by address because
// this is the call in a kernel's inner loop: copying a freshly built Point
// into an argument slot costs more than the lookup. p is only read.
func (c *Cursor) Locate(p *geometry.Point) (part int, slot int64) {
	s := c.last
	if s == nil {
		s = c.seek(p)
	}
	for {
		// Containment and offset in one pass, by hand: a method returning
		// both would be too large to inline.
		d0, d1, d2 := p.C[0]-s.lo[0], p.C[1]-s.lo[1], p.C[2]-s.lo[2]
		if uint64(d0) <= s.ext[0] && uint64(d1) <= s.ext[1] && uint64(d2) <= s.ext[2] && p.Dim == s.dim {
			return int(s.part), s.base + d0*s.stride[0] + d1*s.stride[1] + d2*s.stride[2]
		}
		s = c.seek(p)
	}
}

// Run is Locate for a row: it returns the part and slot of p and the number
// n ≤ max of points, starting at p and advancing along the last dimension,
// that the part stores consecutively from that slot.
func (c *Cursor) Run(p *geometry.Point, max int64) (part int, slot, n int64) {
	part, slot = c.Locate(p)
	last := p.Dim - 1
	s := c.last
	if n = s.lo[last] + int64(s.ext[last]) - p.C[last] + 1; n > max {
		n = max
	}
	return part, slot, n
}

// Runs walks over, which the footprint must contain, row by row and calls
// fn for every stretch of n points, starting at first and advancing along
// the last dimension, that one part stores consecutively from slot. It
// stops early if fn returns false. Walking each run from its first point
// visits exactly the points, in exactly the order, of over.Each; a row of
// over that straddles several spans arrives as several runs.
func (fp *Footprint) Runs(over geometry.IndexSpace, fn func(first geometry.Point, part int, slot, n int64) bool) {
	last := int(over.Dim()) - 1
	c := fp.Cursor()
	over.EachRow(func(p geometry.Point, n int64) bool {
		for n > 0 {
			part, slot, m := c.Run(&p, n)
			if !fn(p, part, slot, m) {
				return false
			}
			p.C[last] += m
			n -= m
		}
		return true
	})
}

// seek moves the cursor to the span containing p.
func (c *Cursor) seek(p *geometry.Point) *fspan {
	s := c.fp.find(p)
	if s == nil {
		panic(fmt.Sprintf("region: point %v outside footprint %v", *p, c.fp))
	}
	c.last = s
	return s
}
