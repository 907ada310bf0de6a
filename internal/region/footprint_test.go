package region

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geometry"
)

// bruteSlot is Layout.Slot by definition, on geometry alone: the spans
// sorted by lower bound, laid out one after the other, each row-major.
func bruteSlot(is geometry.IndexSpace, p geometry.Point) (int64, bool) {
	spans := make([]geometry.Rect, is.NumSpans())
	for i := range spans {
		spans[i] = is.Span(i)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo.Less(spans[j].Lo) })
	base := int64(0)
	for _, sp := range spans {
		if sp.Contains(p) {
			return base + sp.Index(p), true
		}
		base += sp.Volume()
	}
	return 0, false
}

// byteSource deals out a fuzz input; it yields zeros once exhausted.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) next(mod int) int64 {
	v := 0
	if b.pos < len(b.data) {
		v = int(b.data[b.pos])
		b.pos++
	}
	return int64(v % mod)
}

// fuzzBox bounds the lower corners of randomStores' rectangles by
// dimension.
var fuzzBox = [geometry.MaxDim + 1]int64{1: 40, 2: 10, 3: 5}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	fn()
}

// footprintBox bounds the lower corners of checkFootprint's rectangles by
// dimension: wide enough that a root of many short rectangles keeps more
// than fewSpans spans, so most footprints resolve through the bucket table,
// and small enough that the box the check sweeps stays a few thousand
// points.
var footprintBox = [geometry.MaxDim + 1]int64{1: 250, 2: 12, 3: 6}

// A root has rootRects/2 to rootRects rectangles, each of extent below
// rootExt per dimension.
var rootRects = [geometry.MaxDim + 1]int{1: 64, 2: 48, 3: 24}

const rootExt = 3

// shapes draws random rectangles: a rectangle picks an anchor — 0, or in
// extreme mode either end of the int64 range — and each coordinate of its
// lower corner lies below box past it, each extent below ext.
type shapes struct {
	src     *byteSource
	dim     int8
	box     int64
	extreme bool
}

// anchors returns the anchors coordinates start from.
func (g shapes) anchors() []int64 {
	if g.extreme {
		return []int64{math.MinInt64, math.MaxInt64 - 2*g.box}
	}
	return []int64{0}
}

// space draws minRects to maxRects rectangles.
func (g shapes) space(minRects, maxRects int, ext int64) geometry.IndexSpace {
	var rects []geometry.Rect
	for n := minRects + int(g.src.next(maxRects-minRects+1)); n > 0; n-- {
		r := geometry.EmptyRect(g.dim)
		a := int64(0)
		if g.extreme {
			a = g.anchors()[g.src.next(2)]
		}
		for i := 0; i < int(g.dim); i++ {
			r.Lo.C[i] = a + g.src.next(int(g.box))
			r.Hi.C[i] = r.Lo.C[i] + g.src.next(int(ext))
		}
		rects = append(rects, r)
	}
	return geometry.FromRects(g.dim, rects)
}

// sweep returns, in row order, every point whose coordinates each lie
// within one past a root rectangle's reach from an anchor, so that it
// covers the root and misses on every side of it.
func (g shapes) sweep() []geometry.Point {
	var axis []int64
	for _, a := range g.anchors() {
		v := int64(-1)
		if a == math.MinInt64 {
			v = 0
		}
		for ; v <= g.box+rootExt-1; v++ {
			axis = append(axis, a+v)
		}
	}
	pts := []geometry.Point{{Dim: g.dim}}
	for i := 0; i < int(g.dim); i++ {
		var next []geometry.Point
		for _, p := range pts {
			for _, x := range axis {
				q := p
				q.C[i] = x
				next = append(next, q)
			}
		}
		pts = next
	}
	return pts
}

// checkFootprint decodes a root index space and a list of arguments from
// data — each a subregion of the root (so its spans may straddle several
// root spans, and arguments may overlap), stored either in the root's store
// or in a store of its own — and compares the footprint over them with the
// oracle "first argument whose index space contains p, at that store's
// slot for p", point by point over a box that also covers misses. The
// first byte picks the dimension and whether coordinates sit at the ends
// of the int64 range. It reports whether the footprint has a bucket table.
func checkFootprint(t *testing.T, data []byte) (indexed bool) {
	src := &byteSource{data: data}
	mode := src.next(6)
	dim := int8(1 + mode%3)
	g := shapes{src: src, dim: dim, box: footprintBox[dim], extreme: mode >= 3}
	root := g.space(rootRects[dim]/2, rootRects[dim], rootExt)
	rootLayout := NewLayout(root)
	var parts []Part
	for n := 1 + int(src.next(4)); n > 0; n-- {
		// A root with small holes, or a large cut of it.
		over := root.Intersect(g.space(1, 4, g.box))
		if src.next(3) != 0 {
			over = root.Subtract(g.space(1, 4, rootExt))
		}
		layout := rootLayout
		if src.next(2) == 1 {
			layout = NewLayout(over)
		}
		parts = append(parts, Part{Over: over, Layout: layout})
	}
	fp := NewFootprint(parts...)

	type answer struct {
		part int
		slot int64
		ok   bool
	}
	answers := map[geometry.Point]answer{}
	oracle := func(p geometry.Point) (int, int64, bool) {
		if a, ok := answers[p]; ok {
			return a.part, a.slot, a.ok
		}
		a := answer{}
		for i, pt := range parts {
			if pt.Over.Contains(p) {
				slot, ok := bruteSlot(pt.Layout.IndexSpace(), p)
				if !ok {
					t.Fatalf("argument %d holds %v but its layout does not", i, p)
				}
				a = answer{i, slot, true}
				break
			}
		}
		answers[p] = a
		return a.part, a.slot, a.ok
	}

	pts := g.sweep()
	// Visit in row order, then in an order that keeps missing the cursor.
	shuffled := append([]geometry.Point(nil), pts...)
	rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cur := fp.Cursor()
	last := int(dim) - 1
	for _, order := range [][]geometry.Point{pts, shuffled} {
		misses := 0
		for _, p := range order {
			p := p
			part, slot, ok := oracle(p)
			if !ok {
				// A miss formats the whole footprint: sample them.
				if misses++; misses%8 != 1 || misses > 8*64 {
					continue
				}
				mustPanic(t, "Footprint.Locate outside", func() { fp.Locate(p) })
				mustPanic(t, "Cursor.Locate outside", func() { cur.Locate(&p) })
				continue
			}
			if gp, gs := fp.Locate(p); gp != part || gs != slot {
				t.Fatalf("Footprint.Locate(%v) = (%d, %d), want (%d, %d)", p, gp, gs, part, slot)
			}
			if gp, gs := cur.Locate(&p); gp != part || gs != slot {
				t.Fatalf("Cursor.Locate(%v) = (%d, %d), want (%d, %d)", p, gp, gs, part, slot)
			}
			// A run is a stretch of the same argument in consecutive slots.
			gp, gs, n := cur.Run(&p, 4)
			if gp != part || gs != slot || n < 1 || n > 4 {
				t.Fatalf("Cursor.Run(%v) = (%d, %d, %d), want (%d, %d, 1..4)", p, gp, gs, n, part, slot)
			}
			for i := int64(1); i < n; i++ {
				q := p
				q.C[last] += i
				if qp, qs, ok := oracle(q); !ok || qp != part || qs != slot+i {
					t.Fatalf("Cursor.Run(%v) = %d points, but point %d is (%d, %d, %v)", p, n, i, qp, qs, ok)
				}
			}
		}
	}
	return fp.bucket != nil
}

func FuzzFootprintLocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 4, 2, 3, 1, 0, 2, 1, 1, 4, 3, 0})
	f.Add([]byte{1, 3, 0, 0, 4, 4, 5, 0, 3, 2, 8, 8, 1, 1, 3, 1, 0, 2, 2, 4, 0, 1, 6, 1, 4, 1, 1})
	f.Add([]byte{2, 2, 1, 1, 1, 2, 2, 2, 5, 5, 5, 1, 0, 3, 2, 0, 0, 0, 4, 4, 4, 1, 1, 3, 3, 3, 1, 1, 1})
	f.Add(int64EndsSeed)
	f.Fuzz(func(t *testing.T, data []byte) { checkFootprint(t, data) })
}

func TestFootprintMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var inputs, indexed [6]int
	for iter := 0; iter < 240; iter++ {
		data := make([]byte, 320+rng.Intn(192))
		rng.Read(data)
		mode := data[0] % 6
		inputs[mode]++
		if checkFootprint(t, data) {
			indexed[mode]++
		}
	}
	// The oracle must reach the indexed path in every dimension and mode.
	for mode := range inputs {
		if 4*indexed[mode] < 3*inputs[mode] {
			t.Errorf("dim %d, extreme %v: %d of %d footprints have a bucket table", 1+mode%3, mode >= 3, indexed[mode], inputs[mode])
		}
	}
}

// int64EndsSeed is TestFootprintIndexAtInt64Ends' shape for
// checkFootprint: in extreme 1-D mode, a root of twelve two-point spans,
// six past each anchor, read as a part over the low six in a store of its
// own and a part over the high six in the root's.
var int64EndsSeed = func() []byte {
	seed := []byte{3, 0} // extreme 1-D; a root of 32 rectangles
	for r := 0; r < 32; r++ {
		k := byte(min(r, 11))                // the last repeats
		seed = append(seed, k/6, 3*(k%6), 1) // anchor, lower corner, extent
	}
	seed = append(seed, 1) // two parts
	for anchor := byte(0); anchor < 2; anchor++ {
		// One rectangle over an anchor's span; a cut, not holes; stored
		// in a store of its own, then in the root's.
		seed = append(seed, 0, anchor, 0, 249, 0, 1-anchor)
	}
	return seed
}()

// TestFootprintIndexAtInt64Ends: spans near both ends of the int64 range
// put the whole range between a bucket table's first and last span; every
// point still resolves to its slot, and the gaps still miss. A table that
// computed bucket starts as x0 + b<<shift wrapped here and reported
// MaxInt64-16 outside the footprint.
func TestFootprintIndexAtInt64Ends(t *testing.T) {
	for _, dim := range []int8{1, 2} {
		var rects []geometry.Rect
		for k := int64(0); k < 6; k++ {
			lo, hi := math.MinInt64+3*k, math.MaxInt64-3*k
			if dim == 1 {
				rects = append(rects, geometry.R1(lo, lo+1), geometry.R1(hi-1, hi))
			} else {
				rects = append(rects, geometry.R2(lo, 0, lo+1, 1), geometry.R2(hi-1, 0, hi, 1))
			}
		}
		is := geometry.FromRects(dim, rects)
		layout := NewLayout(is)
		if layout.fp.bucket == nil || len(layout.fp.spans) != 12 {
			t.Fatalf("%d-D: layout of %d spans has no bucket table", dim, len(layout.fp.spans))
		}
		is.Each(func(p geometry.Point) bool {
			if got, want := layout.Slot(p), mustSlot(t, is, p); got != want {
				t.Fatalf("%d-D: Slot(%v) = %d, want %d", dim, p, got, want)
			}
			return true
		})
		for _, x := range []int64{math.MinInt64 + 2, -1, 0, math.MaxInt64 - 17, math.MaxInt64 - 2} {
			p := geometry.Point{C: [geometry.MaxDim]int64{x}, Dim: dim}
			mustPanic(t, fmt.Sprintf("%d-D: Slot(%v)", dim, p), func() { layout.Slot(p) })
		}
	}
	if !checkFootprint(t, int64EndsSeed) {
		t.Error("the fuzz seed of this shape builds no bucket table")
	}
}

// TestFootprintIndexBytesDependOnSpanCount: a bucket table takes at most
// about two int32 entries, 8 bytes, per span whatever the coordinates'
// extent — dense, spread across the whole int64 range, or clustered at
// both ends — and every span still resolves.
func TestFootprintIndexBytesDependOnSpanCount(t *testing.T) {
	const n = 1000
	layouts := map[string]func(i int64) int64{
		"dense":  func(i int64) int64 { return 3 * i },
		"spread": func(i int64) int64 { return int64(1<<63 + uint64(i)*(math.MaxUint64/n)) },
		"ends": func(i int64) int64 {
			if i%2 == 0 {
				return math.MinInt64 + 3*i
			}
			return math.MaxInt64 - 1 - 3*i
		},
	}
	for name, lo := range layouts {
		rects := make([]geometry.Rect, n)
		for i := range rects {
			x := lo(int64(i))
			rects[i] = geometry.R1(x, x+1)
		}
		is := geometry.FromRects(1, rects)
		layout := NewLayout(is)
		fp := &layout.fp
		if len(fp.spans) != n || fp.bucket == nil {
			t.Fatalf("%s: %d spans, indexed %v", name, len(fp.spans), fp.bucket != nil)
		}
		if bytes := 4 * cap(fp.bucket); bytes > 8*n+8 {
			t.Errorf("%s: bucket table of %d bytes for %d spans", name, bytes, n)
		}
		for i := range fp.spans {
			p := geometry.Pt1(fp.spans[i].lo[0] + 1)
			if got := layout.Slot(p); got != int64(2*i+1) {
				t.Fatalf("%s: Slot(%v) = %d, want %d", name, p, got, 2*i+1)
			}
		}
	}
}

func mustSlot(t *testing.T, is geometry.IndexSpace, p geometry.Point) int64 {
	t.Helper()
	slot, ok := bruteSlot(is, p)
	if !ok {
		t.Fatalf("%v holds no %v", is, p)
	}
	return slot
}

func TestFootprintRejectsPartOutsideLayout(t *testing.T) {
	layout := NewLayout(geometry.NewIndexSpace(geometry.R1(0, 4)))
	mustPanic(t, "part outside its layout", func() {
		NewFootprint(Part{Over: geometry.NewIndexSpace(geometry.R1(3, 6)), Layout: layout})
	})
}

// TestNewFootprintSharesTheLayoutsOwnSpace: a single part over its layout's
// own index space, the same value, gets the layout's footprint back without
// allocating; a part equal to it as a set but in storage of its own gets a
// footprint of its own that resolves every run the same way.
func TestNewFootprintSharesTheLayoutsOwnSpace(t *testing.T) {
	for _, rects := range [][]geometry.Rect{
		{geometry.R1(0, 3), geometry.R1(8, 9), geometry.R1(20, 29)},
		{geometry.R2(4, 0, 5, 1), geometry.R2(0, 0, 1, 3), geometry.R2(2, 5, 3, 6)},
	} {
		dim := rects[0].Dim()
		is := geometry.FromDisjointRects(dim, rects)
		layout := NewLayout(is)
		shared := NewFootprint(Part{Over: is, Layout: layout})
		if shared != &layout.fp {
			t.Errorf("%v: a part over the layout's own space does not share its footprint", is)
		}
		if n := testing.AllocsPerRun(10, func() { NewFootprint(Part{Over: is, Layout: layout}) }); n != 0 {
			t.Errorf("%v: sharing the layout's footprint allocates %v objects", is, n)
		}
		copied := geometry.FromDisjointRects(dim, rects)
		own := NewFootprint(Part{Over: copied, Layout: layout})
		if own == &layout.fp || !copied.Equal(is) || copied.Same(is) {
			t.Fatalf("%v: the copy in its own storage shares the layout's footprint", is)
		}
		runs := func(fp *Footprint) []string {
			var out []string
			fp.Runs(is, func(first geometry.Point, part int, slot, n int64) bool {
				out = append(out, fmt.Sprint(first, part, slot, n))
				return true
			})
			return out
		}
		if got, want := runs(own), runs(shared); !slices.Equal(got, want) {
			t.Errorf("%v: runs through a copy's footprint %v, through the layout's %v", is, got, want)
		}
	}
}

func TestFootprintDimensionMismatchPanics(t *testing.T) {
	layout := NewLayout(geometry.NewIndexSpace(geometry.R2(0, 0, 3, 3)))
	mustPanic(t, "1-D point in a 2-D layout", func() { layout.Slot(geometry.Pt1(1)) })
}

// randomStores returns two stores over overlapping multi-span index spaces
// and an index space contained in both whose rows straddle their spans.
func randomStores(rng *rand.Rand, dim int8, fs *FieldSpace) (a, b *Store, over geometry.IndexSpace) {
	data := make([]byte, 64)
	rng.Read(data)
	g := shapes{src: &byteSource{data: data}, dim: dim, box: fuzzBox[dim]}
	as, bs := g.space(1, 4, 5), g.space(1, 4, 5)
	a, b = NewStore(as, fs), NewStore(bs, fs)
	return a, b, as.Intersect(bs).Intersect(g.space(1, 4, 5))
}

func TestStoreRowsMatchEach(t *testing.T) {
	fs := NewFieldSpace("x")
	f := fs.Field("x")
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		dim := int8(1 + iter%3)
		a, _, over := randomStores(rng, dim, fs)
		want := over.Points()
		var got []geometry.Point
		a.Rows(f, over, func(first geometry.Point, row []float64) bool {
			for i := range row {
				p := first
				p.C[dim-1] += int64(i)
				got = append(got, p)
				// The row is the store's memory, not a copy of it.
				if slot, _ := bruteSlot(a.IndexSpace(), p); &row[i] != &a.Raw(f)[slot] {
					t.Fatalf("row element for %v does not alias slot %d", p, slot)
				}
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Rows visited %d points, Each %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Rows point %d = %v, Each visits %v", i, got[i], want[i])
			}
		}
	}
}

func TestStoreRowsStopsEarly(t *testing.T) {
	fs := NewFieldSpace("x")
	s := NewStore(geometry.NewIndexSpace(geometry.R2(0, 0, 3, 3)), fs)
	rows := 0
	s.Rows(fs.Field("x"), s.IndexSpace(), func(geometry.Point, []float64) bool {
		rows++
		return rows < 2
	})
	if rows != 2 {
		t.Fatalf("Rows kept going after false: %d rows", rows)
	}
}

// The row-wise copy, fold and comparison against their per-point
// definitions.
func TestCopyReduceEqualByRowsMatchPerPoint(t *testing.T) {
	fs := NewFieldSpace("x")
	f := fs.Field("x")
	rng := rand.New(rand.NewSource(21))
	fill := func(s *Store) {
		for i := range s.Raw(f) {
			s.Raw(f)[i] = float64(rng.Intn(1000)) / 8
		}
	}
	for iter := 0; iter < 150; iter++ {
		src, dst, over := randomStores(rng, int8(1+iter%3), fs)
		fill(src)
		fill(dst)
		for _, op := range []ReductionOp{ReduceNone, ReduceSum, ReduceMin, ReduceMax} {
			want := dst.Clone()
			over.Each(func(p geometry.Point) bool {
				if op == ReduceNone {
					want.Set(f, p, src.Get(f, p))
				} else {
					want.Reduce(f, op, p, src.Get(f, p))
				}
				return true
			})
			got := dst.Clone()
			if op == ReduceNone {
				got.CopyFieldFrom(src, f, over)
			} else {
				got.ReduceFieldFrom(src, f, op, over)
			}
			for i, v := range want.Raw(f) {
				if got.Raw(f)[i] != v {
					t.Fatalf("op %v: slot %d = %v, per-point gives %v", op, i, got.Raw(f)[i], v)
				}
			}
			if !got.EqualOn(want, f, got.IndexSpace()) {
				t.Fatalf("op %v: EqualOn reports equal stores different", op)
			}
		}
		if over.Empty() {
			continue
		}
		// EqualOn sees a difference at any single point of over, and none
		// outside it.
		pts := over.Points()
		p := pts[rng.Intn(len(pts))]
		other := dst.Clone()
		other.Set(f, p, dst.Get(f, p)+1)
		if dst.EqualOn(other, f, over) {
			t.Fatalf("EqualOn missed a difference at %v", p)
		}
		if rest := over.Subtract(geometry.NewIndexSpace(geometry.Rect{Lo: p, Hi: p})); !dst.EqualOn(other, f, rest) {
			t.Fatalf("EqualOn reported a difference outside %v", p)
		}
	}
}
