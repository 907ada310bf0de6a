package geometry

import (
	"math/rand"
	"testing"
)

func TestIndexSpaceBasics(t *testing.T) {
	s := NewIndexSpace(R1(0, 9))
	if s.Empty() || s.Volume() != 10 || !s.Dense() {
		t.Errorf("dense space: empty=%v volume=%d dense=%v", s.Empty(), s.Volume(), s.Dense())
	}
	e := EmptyIndexSpace(1)
	if !e.Empty() || e.Volume() != 0 {
		t.Error("empty space should be empty")
	}
	if !s.Contains(Pt1(5)) || s.Contains(Pt1(10)) {
		t.Error("contains wrong")
	}
}

func TestFromPointsCoalesces(t *testing.T) {
	s := FromPoints(1, []Point{Pt1(3), Pt1(1), Pt1(2), Pt1(7), Pt1(2)})
	if s.Volume() != 4 {
		t.Errorf("volume = %d, want 4 (dedup)", s.Volume())
	}
	if len(spansOf(s)) != 2 {
		t.Errorf("spans = %v, want 2 coalesced runs", spansOf(s))
	}
	if !s.Contains(Pt1(1)) || !s.Contains(Pt1(3)) || !s.Contains(Pt1(7)) || s.Contains(Pt1(4)) {
		t.Error("membership wrong")
	}
}

func TestFromPoints2D(t *testing.T) {
	pts := []Point{Pt2(0, 0), Pt2(0, 1), Pt2(0, 2), Pt2(1, 0)}
	s := FromPoints(2, pts)
	if s.Volume() != 4 {
		t.Errorf("volume = %d", s.Volume())
	}
	for _, p := range pts {
		if !s.Contains(p) {
			t.Errorf("missing %v", p)
		}
	}
}

func TestSubtractRect(t *testing.T) {
	// Punch a hole in the middle of a square.
	a := NewIndexSpace(R2(0, 0, 9, 9))
	b := NewIndexSpace(R2(3, 3, 6, 6))
	d := a.Subtract(b)
	if d.Volume() != 100-16 {
		t.Errorf("volume = %d, want 84", d.Volume())
	}
	if d.Contains(Pt2(4, 4)) || !d.Contains(Pt2(0, 0)) || !d.Contains(Pt2(9, 9)) {
		t.Error("membership wrong after subtract")
	}
	// Disjoint pieces of d must be pairwise disjoint.
	for i, r1 := range spansOf(d) {
		for j, r2 := range spansOf(d) {
			if i != j && r1.Overlaps(r2) {
				t.Errorf("spans %v and %v overlap", r1, r2)
			}
		}
	}
}

func TestUnionIntersectSubtractAlgebra(t *testing.T) {
	a := FromRects(1, []Rect{R1(0, 5), R1(10, 15)})
	b := FromRects(1, []Rect{R1(3, 12)})
	u := a.Union(b)
	if u.Volume() != 16 {
		t.Errorf("union volume = %d, want 16", u.Volume())
	}
	i := a.Intersect(b)
	if i.Volume() != 6 { // 3,4,5 and 10,11,12
		t.Errorf("intersect volume = %d, want 6", i.Volume())
	}
	// |A ∪ B| = |A| + |B| - |A ∩ B|
	if u.Volume() != a.Volume()+b.Volume()-i.Volume() {
		t.Error("inclusion-exclusion violated")
	}
	// (A - B) ∪ (A ∩ B) = A
	if !a.Subtract(b).Union(i).Equal(a) {
		t.Error("difference/intersection decomposition violated")
	}
}

func TestIndexSpaceEqualIgnoresRepresentation(t *testing.T) {
	a := FromRects(1, []Rect{R1(0, 4), R1(5, 9)})
	b := NewIndexSpace(R1(0, 9))
	if !a.Equal(b) {
		t.Error("equal point sets with different spans should be Equal")
	}
	if !a.ContainsAll(b) || !b.ContainsAll(a) {
		t.Error("ContainsAll should hold both ways")
	}
}

func TestIndexSpaceOverlaps(t *testing.T) {
	a := FromRects(1, []Rect{R1(0, 2), R1(8, 9)})
	b := NewIndexSpace(R1(3, 7))
	if a.Overlaps(b) {
		t.Error("disjoint spaces report overlap")
	}
	c := NewIndexSpace(R1(2, 3))
	if !a.Overlaps(c) {
		t.Error("overlapping spaces report disjoint")
	}
}

func TestIndexSpaceBounds(t *testing.T) {
	a := FromRects(2, []Rect{R2(0, 0, 1, 1), R2(5, 7, 6, 9)})
	if got := a.Bounds(); got != R2(0, 0, 6, 9) {
		t.Errorf("bounds = %v", got)
	}
}

func TestIndexSpaceEachVisitsAll(t *testing.T) {
	a := FromRects(1, []Rect{R1(0, 2), R1(5, 6)})
	var got []int64
	a.Each(func(p Point) bool { got = append(got, p.X()); return true })
	want := []int64{0, 1, 2, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func randSpace(rng *rand.Rand, dim int8) IndexSpace {
	n := rng.Intn(4) + 1
	rects := make([]Rect, n)
	for i := range rects {
		rects[i] = randRect(rng, dim)
	}
	return FromRects(dim, rects)
}

// Property: randomized set algebra against a brute-force point-set model.
func TestIndexSpaceSetAlgebraRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		dim := int8(1 + rng.Intn(2))
		a, b := randSpace(rng, dim), randSpace(rng, dim)

		model := func(s IndexSpace) map[Point]bool {
			m := map[Point]bool{}
			s.Each(func(p Point) bool { m[p] = true; return true })
			return m
		}
		ma, mb := model(a), model(b)

		check := func(name string, got IndexSpace, pred func(Point) bool) {
			t.Helper()
			count := int64(0)
			universe := a.Bounds().Union(b.Bounds())
			if universe.Empty() {
				return
			}
			universe.Each(func(p Point) bool {
				want := pred(p)
				if got.Contains(p) != want {
					t.Fatalf("iter %d %s: point %v membership = %v, want %v", iter, name, p, got.Contains(p), want)
				}
				if want {
					count++
				}
				return true
			})
			if got.Volume() != count {
				t.Fatalf("iter %d %s: volume %d, want %d", iter, name, got.Volume(), count)
			}
			// Spans must remain pairwise disjoint.
			for i, r1 := range spansOf(got) {
				for j, r2 := range spansOf(got) {
					if i != j && r1.Overlaps(r2) {
						t.Fatalf("iter %d %s: spans overlap: %v %v", iter, name, r1, r2)
					}
				}
			}
		}

		check("union", a.Union(b), func(p Point) bool { return ma[p] || mb[p] })
		check("intersect", a.Intersect(b), func(p Point) bool { return ma[p] && mb[p] })
		check("subtract", a.Subtract(b), func(p Point) bool { return ma[p] && !mb[p] })
	}
}

// Property: the 1-D sorted-sweep fast paths (triggered above the span
// threshold) agree with the generic algorithms on membership and volume.
func TestSweepFastPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randSparse := func(n int) IndexSpace {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt1(rng.Int63n(2000) * 2) // even points: lots of spans
		}
		return FromPoints(1, pts)
	}
	for iter := 0; iter < 10; iter++ {
		a := randSparse(300)
		b := randSparse(300)
		if len(spansOf(a))+len(spansOf(b)) <= sweepThreshold {
			t.Fatal("test inputs too small to trigger the sweep path")
		}
		model := func(s IndexSpace) map[int64]bool {
			m := map[int64]bool{}
			s.Each(func(p Point) bool { m[p.X()] = true; return true })
			return m
		}
		ma, mb := model(a), model(b)
		check := func(name string, got IndexSpace, pred func(int64) bool) {
			t.Helper()
			count := int64(0)
			for x := int64(0); x < 4100; x++ {
				want := pred(x)
				if got.Contains(Pt1(x)) != want {
					t.Fatalf("%s: membership of %d = %v, want %v", name, x, !want, want)
				}
				if want {
					count++
				}
			}
			if got.Volume() != count {
				t.Fatalf("%s: volume %d, want %d", name, got.Volume(), count)
			}
		}
		check("intersect", a.Intersect(b), func(x int64) bool { return ma[x] && mb[x] })
		check("subtract", a.Subtract(b), func(x int64) bool { return ma[x] && !mb[x] })
		wantOverlap := false
		for x := range ma {
			if mb[x] {
				wantOverlap = true
				break
			}
		}
		if a.Overlaps(b) != wantOverlap {
			t.Fatalf("overlaps = %v, want %v", !wantOverlap, wantOverlap)
		}
	}
}

func TestSubtract1DWideSubtrahend(t *testing.T) {
	// A subtrahend span covering several minuend spans must remove all of
	// them, exercising the j/k cursor logic.
	var aRects, bRects []Rect
	for i := int64(0); i < 100; i++ {
		aRects = append(aRects, R1(i*10, i*10+3))
	}
	bRects = append(bRects, R1(15, 555))
	a := FromDisjointRects(1, aRects)
	b := FromDisjointRects(1, bRects)
	d := a.Subtract(b)
	for i := int64(0); i < 100; i++ {
		for x := i * 10; x <= i*10+3; x++ {
			want := x < 15 || x > 555
			if d.Contains(Pt1(x)) != want {
				t.Fatalf("membership of %d = %v, want %v", x, !want, want)
			}
		}
	}
}

func TestUnionMany(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 20; iter++ {
		var spaces []IndexSpace
		model := map[int64]bool{}
		for k := 0; k < rng.Intn(6)+1; k++ {
			var pts []Point
			for i := 0; i < rng.Intn(50); i++ {
				x := rng.Int63n(300)
				pts = append(pts, Pt1(x))
				model[x] = true
			}
			spaces = append(spaces, FromPoints(1, pts))
		}
		u := UnionMany(1, spaces)
		count := int64(0)
		for x := int64(0); x < 300; x++ {
			if u.Contains(Pt1(x)) != model[x] {
				t.Fatalf("iter %d: membership of %d wrong", iter, x)
			}
			if model[x] {
				count++
			}
		}
		if u.Volume() != count {
			t.Fatalf("iter %d: volume %d want %d", iter, u.Volume(), count)
		}
		// Spans disjoint and sorted.
		for i := 1; i < len(spansOf(u)); i++ {
			if spansOf(u)[i].Lo.X() <= spansOf(u)[i-1].Hi.X() {
				t.Fatalf("iter %d: spans not disjoint-sorted", iter)
			}
		}
	}
	if !UnionMany(1, nil).Empty() {
		t.Error("empty union should be empty")
	}
	// 2-D fallback.
	u2 := UnionMany(2, []IndexSpace{NewIndexSpace(R2(0, 0, 1, 1)), NewIndexSpace(R2(1, 1, 2, 2))})
	if u2.Volume() != 7 {
		t.Errorf("2-D union volume = %d, want 7", u2.Volume())
	}
}

// Property: FromPoints membership equals the input set, for random points
// in random dimensions.
func TestFromPointsMembershipQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		dim := int8(rng.Intn(3)) + 1
		n := rng.Intn(100)
		set := map[Point]bool{}
		pts := make([]Point, 0, n)
		for i := 0; i < n; i++ {
			var p Point
			p.Dim = dim
			for d := 0; d < int(dim); d++ {
				p.C[d] = rng.Int63n(12)
			}
			set[p] = true
			pts = append(pts, p)
		}
		s := FromPoints(dim, pts)
		if int(s.Volume()) != len(set) {
			t.Fatalf("iter %d: volume %d, want %d", iter, s.Volume(), len(set))
		}
		for p := range set {
			if !s.Contains(p) {
				t.Fatalf("iter %d: missing %v", iter, p)
			}
		}
	}
}

func TestFactor2(t *testing.T) {
	for n := int64(1); n <= 200; n++ {
		a, b := Factor2(n)
		if a*b != n || a < b {
			t.Fatalf("Factor2(%d) = %d,%d", n, a, b)
		}
		// Most-square: no factorization with a larger small side exists.
		for d := b + 1; d*d <= n; d++ {
			if n%d == 0 {
				t.Fatalf("Factor2(%d) = %d,%d misses better %d", n, a, b, d)
			}
		}
	}
}
