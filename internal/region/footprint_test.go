package region

import (
	"fmt"
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

// fuzzBox bounds the lower corners of generated rectangles by dimension, so
// that the box the checks sweep stays a few thousand points.
var fuzzBox = [geometry.MaxDim + 1]int{1: 40, 2: 10, 3: 5}

func (b *byteSource) rect(dim int8) geometry.Rect {
	r := geometry.EmptyRect(dim)
	for i := 0; i < int(dim); i++ {
		r.Lo.C[i] = b.next(fuzzBox[dim])
		r.Hi.C[i] = r.Lo.C[i] + b.next(5)
	}
	return r
}

func (b *byteSource) space(dim int8, maxRects int) geometry.IndexSpace {
	var rects []geometry.Rect
	for n := 1 + int(b.next(maxRects)); n > 0; n-- {
		rects = append(rects, b.rect(dim))
	}
	return geometry.FromRects(dim, rects)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected a panic", what)
		}
	}()
	fn()
}

// checkFootprint decodes a root index space and a list of arguments from
// data — each a subregion of the root (so its spans may straddle several
// root spans, and arguments may overlap), stored either in the root's store
// or in a store of its own — and compares the footprint over them with the
// oracle "first argument whose index space contains p, at that store's
// slot for p", point by point over a box that also covers misses.
func checkFootprint(t *testing.T, data []byte) {
	src := &byteSource{data: data}
	dim := int8(1 + src.next(3))
	root := src.space(dim, 4)
	rootLayout := NewLayout(root)
	var parts []Part
	for n := 1 + int(src.next(4)); n > 0; n-- {
		over := root.Intersect(src.space(dim, 3))
		layout := rootLayout
		if src.next(2) == 1 {
			layout = NewLayout(over)
		}
		parts = append(parts, Part{Over: over, Layout: layout})
	}
	fp := NewFootprint(parts...)

	oracle := func(p geometry.Point) (int, int64, bool) {
		for i, pt := range parts {
			if pt.Over.Contains(p) {
				slot, ok := bruteSlot(pt.Layout.IndexSpace(), p)
				if !ok {
					t.Fatalf("argument %d holds %v but its layout does not", i, p)
				}
				return i, slot, true
			}
		}
		return 0, 0, false
	}

	hi := int64(fuzzBox[dim] + 5)
	box := geometry.R3(-1, -1, -1, hi, hi, hi)
	switch dim {
	case 1:
		box = geometry.R1(-1, hi)
	case 2:
		box = geometry.R2(-1, -1, hi, hi)
	}
	var pts []geometry.Point
	box.Each(func(p geometry.Point) bool { pts = append(pts, p); return true })
	// Visit in row order, then in an order that keeps missing the cursor.
	shuffled := append([]geometry.Point(nil), pts...)
	rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cur := fp.Cursor()
	last := int(dim) - 1
	for _, order := range [][]geometry.Point{pts, shuffled} {
		for i, p := range order {
			p := p
			part, slot, ok := oracle(p)
			if !ok {
				if i%8 != 0 {
					continue // a miss formats the whole footprint: sample them
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
}

func FuzzFootprintLocate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 4, 2, 3, 1, 0, 2, 1, 1, 4, 3, 0})
	f.Add([]byte{1, 3, 0, 0, 4, 4, 5, 0, 3, 2, 8, 8, 1, 1, 3, 1, 0, 2, 2, 4, 0, 1, 6, 1, 4, 1, 1})
	f.Add([]byte{2, 2, 1, 1, 1, 2, 2, 2, 5, 5, 5, 1, 0, 3, 2, 0, 0, 0, 4, 4, 4, 1, 1, 3, 3, 3, 1, 1, 1})
	f.Fuzz(checkFootprint)
}

func TestFootprintMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		checkFootprint(t, data)
	}
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
	src := &byteSource{data: data}
	as, bs := src.space(dim, 4), src.space(dim, 4)
	a, b = NewStore(as, fs), NewStore(bs, fs)
	return a, b, as.Intersect(bs).Intersect(src.space(dim, 4))
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
