package region

import (
	"fmt"
	"sort"

	"repro/internal/geometry"
)

// This file implements the partitioning operators of Regent's partitioning
// sub-language (paper §2.1 and [44]): equal/block partitions, grid blocks,
// coloring functions, images, preimages, the set operators on partitions,
// and restriction (used to build the hierarchical private/ghost trees of
// §4.5). Each operator records the disjointness and completeness of the
// partition it creates; those two static bits are all the compiler analysis
// ever consults.

// colors1D returns the 1-D color space 0..n-1.
func colors1D(n int64) geometry.IndexSpace {
	return geometry.NewIndexSpace(geometry.R1(0, n-1))
}

// Block partitions the region into n roughly equal-sized subregions of
// consecutive elements (in span/row-major order), colored 0..n-1. The
// result is disjoint and complete — the direct analogue of Regent's
// block/equal partition (paper Figure 2, lines 20-21).
func (r *Region) Block(name string, n int64) *Partition {
	total := r.volume
	subs := make(map[geometry.Point]geometry.IndexSpace, n)
	// Walk spans in order, assigning each color a contiguous chunk of
	// ceil/floor-balanced size.
	spans := make([]geometry.Rect, r.ispace.NumSpans())
	for i := range spans {
		spans[i] = r.ispace.Span(i)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo.Less(spans[j].Lo) })
	si := 0
	var spanUsed int64 // points consumed from spans[si]
	for c := int64(0); c < n; c++ {
		// Chunk size balanced to within one element.
		chunk := total/n + b2i(c < total%n)
		var rects []geometry.Rect
		for chunk > 0 && si < len(spans) {
			sp := spans[si]
			remain := sp.Volume() - spanUsed
			take := min(chunk, remain)
			rects = append(rects, sliceSpan(sp, spanUsed, take))
			spanUsed += take
			chunk -= take
			if spanUsed == sp.Volume() {
				si++
				spanUsed = 0
			}
		}
		subs[geometry.Pt1(c)] = geometry.FromRects(r.ispace.Dim(), rects)
	}
	return r.newPartition(name, colors1D(n), subs, true, true)
}

// b2i converts a bool to 0/1 for size balancing.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// sliceSpan returns the sub-rectangle of sp covering row-major offsets
// [from, from+count). It requires the slice to be expressible as rectangles;
// for 1-D spans this is always a single interval, and multi-dimensional
// spans are sliced along the first axis, splitting partial rows off as
// separate rectangles.
func sliceSpan(sp geometry.Rect, from, count int64) geometry.Rect {
	if sp.Dim() == 1 {
		return geometry.R1(sp.Lo.X()+from, sp.Lo.X()+from+count-1)
	}
	// Multi-dimensional: require whole-row slices for simplicity; the Block
	// operator only produces these when the caller's span layout permits.
	rowVol := int64(1)
	for i := 1; i < int(sp.Dim()); i++ {
		rowVol *= sp.Hi.C[i] - sp.Lo.C[i] + 1
	}
	if from%rowVol != 0 || count%rowVol != 0 {
		panic("region: Block on a multi-dimensional region requires row-aligned chunk sizes; use Block2D/Block3D for grids")
	}
	out := sp
	out.Lo.C[0] = sp.Lo.C[0] + from/rowVol
	out.Hi.C[0] = out.Lo.C[0] + count/rowVol - 1
	return out
}

// Block2D partitions a dense 2-D region into an nx-by-ny grid of tiles,
// colored by <tx,ty>. Disjoint and complete.
func (r *Region) Block2D(name string, nx, ny int64) *Partition {
	if !r.ispace.Dense() || r.ispace.Dim() != 2 {
		panic("region: Block2D requires a dense 2-D region")
	}
	b := r.ispace.Bounds()
	colorRect := geometry.R2(0, 0, nx-1, ny-1)
	subs := make(map[geometry.Point]geometry.IndexSpace, nx*ny)
	colorRect.Each(func(c geometry.Point) bool {
		subs[c] = geometry.NewIndexSpace(gridTile2D(b, c.X(), c.Y(), nx, ny))
		return true
	})
	return r.newPartition(name, geometry.NewIndexSpace(colorRect), subs, true, true)
}

// gridTile2D returns tile (tx,ty) of an nx-by-ny blocking of b.
func gridTile2D(b geometry.Rect, tx, ty, nx, ny int64) geometry.Rect {
	w := b.Hi.X() - b.Lo.X() + 1
	h := b.Hi.Y() - b.Lo.Y() + 1
	x0 := b.Lo.X() + tx*w/nx
	x1 := b.Lo.X() + (tx+1)*w/nx - 1
	y0 := b.Lo.Y() + ty*h/ny
	y1 := b.Lo.Y() + (ty+1)*h/ny - 1
	return geometry.R2(x0, y0, x1, y1)
}

// Block3D partitions a dense 3-D region into an nx-by-ny-by-nz grid of
// tiles colored by <tx,ty,tz>. Disjoint and complete.
func (r *Region) Block3D(name string, nx, ny, nz int64) *Partition {
	if !r.ispace.Dense() || r.ispace.Dim() != 3 {
		panic("region: Block3D requires a dense 3-D region")
	}
	b := r.ispace.Bounds()
	colorRect := geometry.R3(0, 0, 0, nx-1, ny-1, nz-1)
	subs := make(map[geometry.Point]geometry.IndexSpace, nx*ny*nz)
	ext := func(lo, hi, t, n int64) (int64, int64) {
		w := hi - lo + 1
		return lo + t*w/n, lo + (t+1)*w/n - 1
	}
	colorRect.Each(func(c geometry.Point) bool {
		x0, x1 := ext(b.Lo.X(), b.Hi.X(), c.X(), nx)
		y0, y1 := ext(b.Lo.Y(), b.Hi.Y(), c.Y(), ny)
		z0, z1 := ext(b.Lo.Z(), b.Hi.Z(), c.Z(), nz)
		subs[c] = geometry.NewIndexSpace(geometry.R3(x0, y0, z0, x1, y1, z1))
		return true
	})
	return r.newPartition(name, geometry.NewIndexSpace(colorRect), subs, true, true)
}

// ByColor partitions the region by a coloring function mapping each element
// to a color in colorSpace. Disjoint by construction (each element has one
// color) and complete (every element is colored).
func (r *Region) ByColor(name string, colorSpace geometry.IndexSpace, color func(geometry.Point) geometry.Point) *Partition {
	buckets := make(map[geometry.Point][]geometry.Point)
	r.ispace.Each(func(p geometry.Point) bool {
		buckets[color(p)] = append(buckets[color(p)], p)
		return true
	})
	// Ascending color order, so the color the panic names is the lowest one
	// outside the space, whichever the map yields first.
	colors := make([]geometry.Point, 0, len(buckets))
	for c := range buckets {
		colors = append(colors, c)
	}
	sort.Slice(colors, func(i, j int) bool { return colors[i].Less(colors[j]) })
	subs := make(map[geometry.Point]geometry.IndexSpace, len(buckets))
	for _, c := range colors {
		if !colorSpace.Contains(c) {
			panic(fmt.Sprintf("region: ByColor color %v outside color space", c))
		}
		subs[c] = geometry.FromPoints(r.ispace.Dim(), buckets[c])
	}
	return r.newPartition(name, colorSpace, subs, true, true)
}

// BySubsets creates a partition from explicitly enumerated subsets, the
// escape hatch for application-specific partitioning algorithms (the paper
// stresses CR succeeds for arbitrary programmer partitions). Disjointness is
// established dynamically by pairwise overlap tests; completeness by
// comparing the union's volume with the parent's.
func (r *Region) BySubsets(name string, colorSpace geometry.IndexSpace, subsets map[geometry.Point]geometry.IndexSpace) *Partition {
	disjoint := true
	var totalVol int64
	all := make([]geometry.IndexSpace, 0, len(subsets))
	colorSpace.Each(func(c geometry.Point) bool {
		is, ok := subsets[c]
		if !ok {
			return true
		}
		if !r.ispace.ContainsAll(is) {
			panic(fmt.Sprintf("region: BySubsets subset %v not contained in parent %s", c, r.name))
		}
		for _, other := range all {
			if disjoint && is.Overlaps(other) {
				disjoint = false
			}
		}
		all = append(all, is)
		totalVol += is.Volume()
		return true
	})
	complete := disjoint && totalVol == r.volume
	return r.newPartition(name, colorSpace, subsets, disjoint, complete)
}

// BySubsetsUnchecked creates a partition from explicitly enumerated subsets
// with caller-asserted disjointness and completeness, skipping the
// quadratic pairwise verification and the containment checks. It exists
// for partitions that are disjoint by construction at scales where the
// dynamic verification would dominate setup (e.g. the per-piece
// private/shared node sets of a 1024-piece unstructured graph). An
// incorrect assertion makes the compiler's aliasing analysis unsound, so
// application tests must validate the construction at small scale (e.g.
// through the checked BySubsets).
func (r *Region) BySubsetsUnchecked(name string, colorSpace geometry.IndexSpace, subsets map[geometry.Point]geometry.IndexSpace, disjoint, complete bool) *Partition {
	return r.newPartition(name, colorSpace, subsets, disjoint, complete)
}

// Image creates a partition of dst where subregion i is the set of points
// f(p) for p in src[i], intersected with dst (paper Figure 2, line 22:
// QB = image(B, PB, h)). f may map a point to several points (a halo
// pattern, a wire's endpoints). The result is conservatively aliased and
// not complete, exactly as Regent assumes for an unconstrained h.
func Image(dst *Region, src *Partition, name string, f func(geometry.Point) []geometry.Point) *Partition {
	subs := make(map[geometry.Point]geometry.IndexSpace, len(src.colors))
	src.Each(func(c geometry.Point, sub *Region) bool {
		var pts []geometry.Point
		sub.ispace.Each(func(p geometry.Point) bool {
			pts = append(pts, f(p)...)
			return true
		})
		subs[c] = geometry.FromPoints(dst.ispace.Dim(), pts).Intersect(dst.ispace)
		return true
	})
	return dst.newPartition(name, src.colorSpace, subs, false, false)
}

// ImageRects is Image for the common structured case where the image of a
// whole subregion is directly expressible as rectangles (e.g. a stencil
// halo): g maps each source subregion's index space to the rectangles of
// its image. It avoids per-point evaluation.
func ImageRects(dst *Region, src *Partition, name string, g func(geometry.IndexSpace) []geometry.Rect) *Partition {
	subs := make(map[geometry.Point]geometry.IndexSpace, len(src.colors))
	src.Each(func(c geometry.Point, sub *Region) bool {
		subs[c] = geometry.FromRects(dst.ispace.Dim(), g(sub.ispace)).Intersect(dst.ispace)
		return true
	})
	return dst.newPartition(name, src.colorSpace, subs, false, false)
}

// Preimage creates a partition of dst where subregion i holds the points p
// of dst with f(p) in src[i]. When src is disjoint and f is single-valued,
// the preimage is disjoint.
func Preimage(dst *Region, src *Partition, name string, f func(geometry.Point) geometry.Point) *Partition {
	buckets := make(map[geometry.Point][]geometry.Point)
	dst.ispace.Each(func(p geometry.Point) bool {
		img := f(p)
		src.Each(func(c geometry.Point, sub *Region) bool {
			if sub.ispace.Contains(img) {
				buckets[c] = append(buckets[c], p)
			}
			return true
		})
		return true
	})
	subs := make(map[geometry.Point]geometry.IndexSpace, len(buckets))
	for c, pts := range buckets {
		subs[c] = geometry.FromPoints(dst.ispace.Dim(), pts) //detlint:ignore each bucket becomes its own color's subspace; no bucket sees another
	}
	return dst.newPartition(name, src.colorSpace, subs, src.disjoint, false)
}

// PUnion creates the color-wise union of two partitions of the same region.
// Conservatively aliased.
func PUnion(name string, a, b *Partition) *Partition {
	mustSameParent(a, b)
	subs := make(map[geometry.Point]geometry.IndexSpace, len(a.colors))
	a.Each(func(c geometry.Point, sub *Region) bool {
		subs[c] = sub.ispace.Union(b.Sub(c).ispace)
		return true
	})
	return a.parent.newPartition(name, a.colorSpace, subs, false, a.complete || b.complete)
}

// PIntersection creates the color-wise intersection of two partitions of
// the same region. Disjoint if either input is disjoint.
func PIntersection(name string, a, b *Partition) *Partition {
	mustSameParent(a, b)
	subs := make(map[geometry.Point]geometry.IndexSpace, len(a.colors))
	a.Each(func(c geometry.Point, sub *Region) bool {
		subs[c] = sub.ispace.Intersect(b.Sub(c).ispace)
		return true
	})
	return a.parent.newPartition(name, a.colorSpace, subs, a.disjoint || b.disjoint, false)
}

// PDifference creates the color-wise difference of two partitions of the
// same region. Disjoint if a is disjoint.
func PDifference(name string, a, b *Partition) *Partition {
	mustSameParent(a, b)
	subs := make(map[geometry.Point]geometry.IndexSpace, len(a.colors))
	a.Each(func(c geometry.Point, sub *Region) bool {
		subs[c] = sub.ispace.Subtract(b.Sub(c).ispace)
		return true
	})
	return a.parent.newPartition(name, a.colorSpace, subs, a.disjoint, false)
}

// Restrict creates a partition of sub whose subregions are p's subregions
// intersected with sub. This is the operator behind the hierarchical
// private/ghost region trees of §4.5: e.g. restricting the original block
// partition to the all_private subregion. Disjointness is inherited from p.
func Restrict(sub *Region, p *Partition, name string) *Partition {
	restrict := func(child geometry.IndexSpace) geometry.IndexSpace { return child.Intersect(sub.ispace) }
	if dim := sub.ispace.Dim(); dim > 1 {
		// Structured regions: Intersect tries every span of sub against every
		// child span, so all children cost all of sub each. One BVH over
		// sub's spans finds the few a child span meets, and taking those in
		// span order gives Intersect's spans in Intersect's order.
		entries := make([]geometry.BVHEntry, sub.ispace.NumSpans())
		for i := range entries {
			entries[i] = geometry.BVHEntry{Rect: sub.ispace.Span(i), ID: i}
		}
		bvh := geometry.NewBVH(entries)
		var hits []int
		var rects []geometry.Rect
		restrict = func(child geometry.IndexSpace) geometry.IndexSpace {
			rects = rects[:0]
			for ci := 0; ci < child.NumSpans(); ci++ {
				sp := child.Span(ci)
				hits = bvh.Query(sp, hits[:0])
				sort.Ints(hits)
				for _, i := range hits {
					rects = append(rects, sp.Intersect(sub.ispace.Span(i)))
				}
			}
			return geometry.FromDisjointRects(dim, rects)
		}
	}
	subs := make(map[geometry.Point]geometry.IndexSpace, len(p.colors))
	p.Each(func(c geometry.Point, child *Region) bool {
		subs[c] = restrict(child.ispace)
		return true
	})
	return sub.newPartition(name, p.colorSpace, subs, p.disjoint, false)
}

func mustSameParent(a, b *Partition) {
	if a.parent != b.parent {
		panic("region: partition set operators require a common parent region")
	}
	if !a.colorSpace.Equal(b.colorSpace) {
		panic("region: partition set operators require matching color spaces")
	}
}
