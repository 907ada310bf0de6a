package lang

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/region"
)

// pointwise is the per-point definition of an image functor over the
// region [lo, lo+size): the point p maps to p+k for every offset k of the
// functor — clipped to the region for window, wrapped around it for shift
// and ring.
func pointwise(fn astFunctor, lo, size int64) func(geometry.Point) []geometry.Point {
	a, w := fn.a, fn.b
	if fn.kind == "shift" {
		w = a
	}
	return func(p geometry.Point) []geometry.Point {
		var out []geometry.Point
		off := p.X() - lo
		for d := int64(0); d <= w-a; d++ {
			k := a + d
			if fn.kind != "window" {
				out = append(out, geometry.Pt1(lo+(off+(k%size+size)%size)%size))
			} else if k > -size && k < size && off+k >= 0 && off+k < size {
				out = append(out, geometry.Pt1(lo+off+k))
			}
		}
		return out
	}
}

// TestFunctorsMatchPerPointImage: every image functor's partition, built
// from rectangles, equals region.Image's per-point result subregion by
// subregion and span by span, over random extents, block counts, offsets
// (some far outside the region, some near the ends of int64) and window
// widths (some empty, some covering the region), on regions anywhere in
// int64 including its first and last points. Every functor also runs over
// a wrapped image partition, whose subregions have two spans.
func TestFunctorsMatchPerPointImage(t *testing.T) {
	// window(-1, 1) of a two-span source widens each span, not the gap
	// between them: block 0 of block(R[0..15], 8) is [0..1], its ring(-2, 0)
	// image is {[0..1] [14..15]}, and the window of that is
	// {[0..2] [13..15]}, not [0..15].
	r := region.NewTree().NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	two := region.ImageRects(r, r.Block("P", 8), "S", functor(astFunctor{kind: "ring", a: -2, b: 0}, 0, 15))
	got := region.ImageRects(r, two, "W", functor(astFunctor{kind: "window", a: -1, b: 1}, 0, 15))
	want := geometry.FromDisjointRects(1, []geometry.Rect{geometry.R1(0, 2), geometry.R1(13, 15)})
	if g := got.Sub(geometry.Pt1(0)).IndexSpace(); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Errorf("window(-1, 1) of {[0..1] [14..15]} is %v, want %v", g, want)
	}

	rng := rand.New(rand.NewSource(1))
	offset := func(size int64) int64 {
		if rng.Intn(4) == 0 {
			return int64(rng.Uint64()) // anywhere in int64
		}
		return rng.Int63n(6*size+1) - 3*size
	}
	for c := 0; c < 300; c++ {
		size := 1 + rng.Int63n(96)
		lo := rng.Int63n(2001) - 1000
		switch c % 3 {
		case 1:
			lo = math.MaxInt64 - size + 1
		case 2:
			lo = math.MinInt64 + rng.Int63n(4)
		}
		hi := lo + size - 1
		r := region.NewTree().NewRegion("R", geometry.NewIndexSpace(geometry.R1(lo, hi)))
		blocks := r.Block("P", 1+rng.Int63n(size+2))
		wrapped := region.ImageRects(r, blocks, "S", functor(astFunctor{kind: "shift", a: 1 + rng.Int63n(size)}, lo, hi))
		for _, kind := range []string{"shift", "ring", "window"} {
			a, width := offset(size), rng.Int63n(2*size+3)-1 // width -1: an empty window
			a = min(max(a, math.MinInt64+1), math.MaxInt64-2*size-1)
			fn := astFunctor{kind: kind, a: a, b: a + width}
			if kind == "shift" {
				fn.b = 0 // unused
			}
			for _, src := range []*region.Partition{blocks, wrapped} {
				name := fmt.Sprintf("case %d: %+v of %s over [%d..%d]", c, fn, src.Name(), lo, hi)
				got := region.ImageRects(r, src, "got", functor(fn, lo, hi))
				want := region.Image(r, src, "want", pointwise(fn, lo, size))
				src.Each(func(col geometry.Point, _ *region.Region) bool {
					g, w := got.Sub(col).IndexSpace(), want.Sub(col).IndexSpace()
					if g.NumSpans() != w.NumSpans() {
						t.Fatalf("%s: subregion %v is %v, want %v", name, col, g, w)
					}
					for i := range g.NumSpans() {
						if g.Span(i) != w.Span(i) {
							t.Fatalf("%s: subregion %v span %d is %v, want %v", name, col, i, g.Span(i), w.Span(i))
						}
					}
					return true
				})
			}
		}
	}
}
