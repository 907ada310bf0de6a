package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectEmptyVolume(t *testing.T) {
	if R1(0, -1).Empty() != true {
		t.Error("R1(0,-1) should be empty")
	}
	if R1(0, 0).Empty() {
		t.Error("R1(0,0) should not be empty")
	}
	if v := R1(0, 9).Volume(); v != 10 {
		t.Errorf("volume = %d, want 10", v)
	}
	if v := R2(0, 0, 3, 4).Volume(); v != 20 {
		t.Errorf("volume = %d, want 20", v)
	}
	if v := R3(1, 1, 1, 2, 2, 2).Volume(); v != 8 {
		t.Errorf("volume = %d, want 8", v)
	}
	if v := EmptyRect(2).Volume(); v != 0 {
		t.Errorf("empty volume = %d", v)
	}
}

func TestRectContains(t *testing.T) {
	r := R2(0, 0, 9, 9)
	if !r.Contains(Pt2(0, 0)) || !r.Contains(Pt2(9, 9)) || !r.Contains(Pt2(4, 7)) {
		t.Error("inclusive bounds should contain corners and interior")
	}
	if r.Contains(Pt2(10, 0)) || r.Contains(Pt2(0, -1)) {
		t.Error("should not contain exterior points")
	}
}

func TestRectIntersect(t *testing.T) {
	a, b := R2(0, 0, 5, 5), R2(3, 3, 8, 8)
	got := a.Intersect(b)
	if got != R2(3, 3, 5, 5) {
		t.Errorf("intersect = %v", got)
	}
	disjoint := R2(6, 6, 8, 8)
	if !a.Intersect(disjoint).Empty() {
		t.Error("expected empty intersection")
	}
	// Touching rectangles (inclusive bounds) intersect in a line.
	touch := R2(5, 0, 7, 5)
	if a.Intersect(touch) != R2(5, 0, 5, 5) {
		t.Errorf("touching intersect = %v", a.Intersect(touch))
	}
}

func TestRectUnionBounding(t *testing.T) {
	a, b := R1(0, 3), R1(10, 12)
	if got := a.Union(b); got != R1(0, 12) {
		t.Errorf("union = %v", got)
	}
	if got := EmptyRect(1).Union(b); got != b {
		t.Errorf("empty union = %v", got)
	}
	if got := a.Union(EmptyRect(1)); got != a {
		t.Errorf("union empty = %v", got)
	}
}

func TestRectIndexRoundTrip(t *testing.T) {
	r := R3(2, -1, 5, 4, 3, 9)
	seen := map[int64]bool{}
	r.Each(func(p Point) bool {
		idx := r.Index(p)
		if idx < 0 || idx >= r.Volume() {
			t.Fatalf("index %d out of range for %v", idx, p)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d at %v", idx, p)
		}
		seen[idx] = true
		if got := r.PointAt(idx); got != p {
			t.Fatalf("PointAt(%d) = %v, want %v", idx, got, p)
		}
		return true
	})
	if int64(len(seen)) != r.Volume() {
		t.Errorf("visited %d points, want %d", len(seen), r.Volume())
	}
}

func TestRectEachRowMajorOrder(t *testing.T) {
	r := R2(0, 0, 1, 2)
	var got []Point
	r.Each(func(p Point) bool { got = append(got, p); return true })
	want := []Point{Pt2(0, 0), Pt2(0, 1), Pt2(0, 2), Pt2(1, 0), Pt2(1, 1), Pt2(1, 2)}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRectEachEarlyStop(t *testing.T) {
	r := R1(0, 99)
	n := 0
	r.Each(func(Point) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("visited %d points, want 5", n)
	}
}

// TestRectEachStopsAtTopOfInt64: advancing past a bound of MaxInt64 must
// not wrap around to MinInt64, in Each or EachRow.
func TestRectEachStopsAtTopOfInt64(t *testing.T) {
	const m = math.MaxInt64
	for _, c := range []struct {
		r          Rect
		points     int
		rows       int
		firstOfRow Point
	}{
		{R1(m-3, m), 4, 1, Pt1(m - 3)},
		{R2(m-1, m-2, m, m), 6, 2, Pt2(m, m-2)},
	} {
		n := 0
		c.r.Each(func(Point) bool { n++; return n <= c.points })
		if n != c.points {
			t.Errorf("%v: Each visited %d points (stopped at %d), want %d", c.r, n, c.points+1, c.points)
		}
		var rows []Point
		c.r.EachRow(func(p Point, _ int64) bool { rows = append(rows, p); return len(rows) <= c.rows })
		if len(rows) != c.rows || rows[len(rows)-1] != c.firstOfRow {
			t.Errorf("%v: EachRow visited rows %v, want %d ending at %v", c.r, rows, c.rows, c.firstOfRow)
		}
	}
}

func randRect(rng *rand.Rand, dim int8) Rect {
	var r Rect
	r.Lo.Dim, r.Hi.Dim = dim, dim
	for i := 0; i < int(dim); i++ {
		a := rng.Int63n(20) - 10
		b := rng.Int63n(20) - 10
		if a > b {
			a, b = b, a
		}
		r.Lo.C[i], r.Hi.C[i] = a, b
	}
	return r
}

// Property: intersection volume equals brute-force point count.
func TestRectIntersectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		dim := int8(1 + rng.Intn(3))
		a, b := randRect(rng, dim), randRect(rng, dim)
		c := a.Intersect(b)
		count := int64(0)
		a.Each(func(p Point) bool {
			if b.Contains(p) {
				count++
				if !c.Contains(p) {
					t.Fatalf("point %v in both %v,%v but not in intersection %v", p, a, b, c)
				}
			}
			return true
		})
		if count != c.Volume() {
			t.Fatalf("intersect volume %d, brute force %d (%v ∩ %v = %v)", c.Volume(), count, a, b, c)
		}
	}
}

// Property: Overlaps is symmetric and consistent with Intersect.
func TestRectOverlapsSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := R1(int64(ax), int64(ax)+int64(ay%8+8))
		b := R1(int64(bx), int64(bx)+int64(by%8+8))
		return a.Overlaps(b) == b.Overlaps(a) &&
			a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Index/PointAt are inverse bijections over random rectangles.
func TestIndexPointAtBijectionQuick(t *testing.T) {
	f := func(dimRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := int8(dimRaw%3) + 1
		r := randRect(rng, dim)
		if r.Empty() || r.Volume() > 500 {
			return true
		}
		for idx := int64(0); idx < r.Volume(); idx++ {
			p := r.PointAt(idx)
			if !r.Contains(p) || r.Index(p) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Union bounding box contains both inputs.
func TestRectUnionContainsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := int8(rng.Intn(3)) + 1
		a, b := randRect(rng, dim), randRect(rng, dim)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
