package geometry

import "fmt"

// Rect is an axis-aligned rectangle (interval, rectangle, or box depending
// on dimensionality) with inclusive bounds. A Rect with any Hi coordinate
// strictly below the corresponding Lo coordinate is empty.
type Rect struct {
	Lo, Hi Point
}

// R1 returns the 1-D rectangle [lo, hi].
func R1(lo, hi int64) Rect { return Rect{Pt1(lo), Pt1(hi)} }

// R2 returns the 2-D rectangle [lox,hix] x [loy,hiy].
func R2(lox, loy, hix, hiy int64) Rect { return Rect{Pt2(lox, loy), Pt2(hix, hiy)} }

// R3 returns the 3-D rectangle [lox,hix] x [loy,hiy] x [loz,hiz].
func R3(lox, loy, loz, hix, hiy, hiz int64) Rect {
	return Rect{Pt3(lox, loy, loz), Pt3(hix, hiy, hiz)}
}

// Dim returns the rectangle's dimensionality.
func (r Rect) Dim() int8 { return r.Lo.Dim }

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool {
	for i := 0; i < int(r.Lo.Dim); i++ {
		if r.Hi.C[i] < r.Lo.C[i] {
			return true
		}
	}
	return false
}

// Volume returns the number of points contained in the rectangle.
func (r Rect) Volume() int64 {
	if r.Empty() {
		return 0
	}
	v := int64(1)
	for i := 0; i < int(r.Lo.Dim); i++ {
		v *= r.Hi.C[i] - r.Lo.C[i] + 1
	}
	return v
}

// Contains reports whether point p lies inside the rectangle.
func (r Rect) Contains(p Point) bool {
	r.Lo.mustMatch(p)
	for i := 0; i < int(p.Dim); i++ {
		if p.C[i] < r.Lo.C[i] || p.C[i] > r.Hi.C[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is entirely inside r. An empty s is
// contained in every rectangle.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Overlaps reports whether the two rectangles share at least one point:
// !r.Intersect(s).Empty(), without building the intersection.
func (r Rect) Overlaps(s Rect) bool {
	r.Lo.mustMatch(s.Lo)
	for i := 0; i < int(r.Lo.Dim); i++ {
		if max(r.Lo.C[i], s.Lo.C[i]) > min(r.Hi.C[i], s.Hi.C[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the rectangle common to r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	r.Lo.mustMatch(s.Lo)
	out := r
	for i := 0; i < int(r.Lo.Dim); i++ {
		out.Lo.C[i] = max(r.Lo.C[i], s.Lo.C[i])
		out.Hi.C[i] = min(r.Hi.C[i], s.Hi.C[i])
	}
	if out.Empty() {
		return EmptyRect(r.Dim())
	}
	return out
}

// Union returns the bounding box of r and s. Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	r.Lo.mustMatch(s.Lo)
	out := r
	for i := 0; i < int(r.Lo.Dim); i++ {
		out.Lo.C[i] = min(r.Lo.C[i], s.Lo.C[i])
		out.Hi.C[i] = max(r.Hi.C[i], s.Hi.C[i])
	}
	return out
}

// EmptyRect returns a canonical empty rectangle of the given dimension.
func EmptyRect(dim int8) Rect {
	var r Rect
	r.Lo.Dim, r.Hi.Dim = dim, dim
	for i := 0; i < int(dim); i++ {
		r.Lo.C[i], r.Hi.C[i] = 0, -1
	}
	return r
}

// Index returns the row-major linear offset of p within r. It panics if p
// is outside r; callers index physical instances with it.
func (r Rect) Index(p Point) int64 {
	if !r.Contains(p) {
		panic(fmt.Sprintf("geometry: point %v outside rect %v", p, r))
	}
	idx := int64(0)
	for i := 0; i < int(p.Dim); i++ {
		idx = idx*(r.Hi.C[i]-r.Lo.C[i]+1) + (p.C[i] - r.Lo.C[i])
	}
	return idx
}

// PointAt inverts Index: it returns the point at row-major offset idx.
func (r Rect) PointAt(idx int64) Point {
	p := r.Lo
	for i := int(p.Dim) - 1; i >= 0; i-- {
		extent := r.Hi.C[i] - r.Lo.C[i] + 1
		p.C[i] = r.Lo.C[i] + idx%extent
		idx /= extent
	}
	return p
}

// Each calls fn for every point in the rectangle in row-major order,
// stopping early if fn returns false.
func (r Rect) Each(fn func(Point) bool) {
	if r.Empty() {
		return
	}
	p := r.Lo
	for {
		if !fn(p) {
			return
		}
		// Advance row-major: increment the last coordinate, carrying, and
		// never past Hi, which may be the top of int64.
		i := int(p.Dim) - 1
		for ; i >= 0; i-- {
			if p.C[i] < r.Hi.C[i] {
				p.C[i]++
				break
			}
			p.C[i] = r.Lo.C[i]
		}
		if i < 0 {
			return
		}
	}
}

// EachRow calls fn with the first point and the length of every row of the
// rectangle — a maximal run of points along the last dimension — stopping
// early if fn returns false. Rows come in the order Each visits their
// points, so walking each row from its first point reproduces Each exactly.
func (r Rect) EachRow(fn func(first Point, n int64) bool) {
	if r.Empty() {
		return
	}
	last := int(r.Lo.Dim) - 1
	n := r.Hi.C[last] - r.Lo.C[last] + 1
	p := r.Lo
	for {
		if !fn(p, n) {
			return
		}
		i := last - 1
		for ; i >= 0; i-- {
			if p.C[i] < r.Hi.C[i] {
				p.C[i]++
				break
			}
			p.C[i] = r.Lo.C[i]
		}
		if i < 0 {
			return
		}
	}
}

// String formats the rectangle as lo..hi.
func (r Rect) String() string { return string(r.appendTo(make([]byte, 0, 48))) }

func (r Rect) appendTo(b []byte) []byte {
	if r.Empty() {
		return append(b, "[empty]"...)
	}
	b = r.Lo.appendTo(append(b, '['))
	b = r.Hi.appendTo(append(b, ".."...))
	return append(b, ']')
}
