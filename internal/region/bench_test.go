package region

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// voltageView builds a footprint shaped like circuit's voltage view of one
// piece: the piece's private nodes, its shared nodes and the shared nodes
// of other pieces it reads as ghosts, each in a store of its own, about
// 300 spans in all. It returns the footprint and the points a kernel's
// wires read through it, in wire order.
func voltageView(rng *rand.Rand) (*Footprint, []geometry.Point) {
	const pieces, perPiece = 8, 1024
	var shared []geometry.Rect
	for n := int64(0); n < pieces*perPiece; n++ {
		if rng.Intn(10) == 0 {
			shared = append(shared, geometry.R1(n, n))
		}
	}
	piece := geometry.NewIndexSpace(geometry.R1(0, perPiece-1))
	allShared := geometry.FromRects(1, shared)
	var ghost []geometry.Rect
	for _, r := range shared {
		if r.Lo.C[0] >= perPiece && rng.Intn(6) == 0 {
			ghost = append(ghost, r)
		}
	}
	var parts []Part
	for _, over := range []geometry.IndexSpace{
		piece.Subtract(allShared),
		piece.Intersect(allShared),
		geometry.FromRects(1, ghost),
	} {
		parts = append(parts, Part{Over: over, Layout: NewLayout(over)})
	}
	var pts []geometry.Point
	for _, pt := range parts {
		pts = append(pts, pt.Over.Points()...)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return NewFootprint(parts...), pts
}

// BenchmarkCursorLocate times one point lookup where a kernel's reads keep
// missing its cursor: scattered 1-D reads through a three-part voltage
// view, and Store.Get in point order over a store of 4 320 three-point
// spans (a fresh cursor per Get).
func BenchmarkCursorLocate(b *testing.B) {
	b.Run("voltage-view", func(b *testing.B) {
		fp, pts := voltageView(rand.New(rand.NewSource(1)))
		cur := fp.Cursor()
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			part, slot := cur.Locate(&pts[i%len(pts)])
			sink += int64(part) + slot
		}
		benchSink = sink
		b.ReportMetric(float64(len(fp.spans)), "spans")
	})
	b.Run("sparse-store", func(b *testing.B) {
		rects := make([]geometry.Rect, 4320)
		for i := range rects {
			x := int64(8 * i)
			rects[i] = geometry.R1(x, x+2)
		}
		fs := NewFieldSpace("v")
		f := fs.Field("v")
		st := NewStore(geometry.FromRects(1, rects), fs)
		pts := st.IndexSpace().Points()
		var sink float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += st.Get(f, pts[i%len(pts)])
		}
		benchSink = int64(sink)
	})
}

var benchSink int64
