// Package geometry provides the index-space geometry underlying logical
// regions: points, rectangles, dense and sparse index spaces, and the
// acceleration structures (interval trees and bounding-volume hierarchies)
// used by the control replication compiler's shallow-intersection phase.
//
// All coordinates are int64. Points and rectangles carry an explicit
// dimensionality from 1 to 3; a rectangle's bounds are inclusive on both
// ends, matching Legion's convention.
package geometry

import (
	"cmp"
	"fmt"
	"strconv"
)

// MaxDim is the maximum supported dimensionality of an index space.
const MaxDim = 3

// Point is a point in a 1-, 2- or 3-dimensional integer index space.
// Coordinates beyond Dim must be zero so that equality on the struct is
// equality on the point.
type Point struct {
	C   [MaxDim]int64
	Dim int8
}

// Pt1 returns a 1-D point.
func Pt1(x int64) Point { return Point{C: [MaxDim]int64{x, 0, 0}, Dim: 1} }

// Pt2 returns a 2-D point.
func Pt2(x, y int64) Point { return Point{C: [MaxDim]int64{x, y, 0}, Dim: 2} }

// Pt3 returns a 3-D point.
func Pt3(x, y, z int64) Point { return Point{C: [MaxDim]int64{x, y, z}, Dim: 3} }

// X returns the first coordinate.
func (p Point) X() int64 { return p.C[0] }

// Y returns the second coordinate (zero for 1-D points).
func (p Point) Y() int64 { return p.C[1] }

// Z returns the third coordinate (zero for 1-D and 2-D points).
func (p Point) Z() int64 { return p.C[2] }

// Add returns the coordinate-wise sum of p and q. The points must have the
// same dimensionality.
func (p Point) Add(q Point) Point {
	p.mustMatch(q)
	for i := 0; i < int(p.Dim); i++ {
		p.C[i] += q.C[i]
	}
	return p
}

// Sub returns the coordinate-wise difference of p and q.
func (p Point) Sub(q Point) Point {
	p.mustMatch(q)
	for i := 0; i < int(p.Dim); i++ {
		p.C[i] -= q.C[i]
	}
	return p
}

// Less reports whether p precedes q in lexicographic order. The points must
// have the same dimensionality.
func (p Point) Less(q Point) bool { return p.compare(q) < 0 }

// compare is the three-way form of Less: negative, zero or positive as p
// precedes, equals or follows q.
func (p Point) compare(q Point) int {
	p.mustMatch(q)
	for i := 0; i < int(p.Dim); i++ {
		if c := cmp.Compare(p.C[i], q.C[i]); c != 0 {
			return c
		}
	}
	return 0
}

// String formats the point as <x>, <x,y> or <x,y,z>.
func (p Point) String() string { return string(p.appendTo(make([]byte, 0, 24))) }

// appendTo appends String's text to b. The String methods of this package
// build into one buffer: witness rendering prints spaces of many spans.
func (p Point) appendTo(b []byte) []byte {
	n := 3
	if p.Dim == 1 || p.Dim == 2 {
		n = int(p.Dim)
	}
	b = append(b, '<')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, p.C[i], 10)
	}
	return append(b, '>')
}

func (p Point) mustMatch(q Point) {
	if p.Dim != q.Dim {
		panic(fmt.Sprintf("geometry: dimension mismatch %d vs %d", p.Dim, q.Dim))
	}
}
