package geometry

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fuzzSpace decodes bytes into an index space. 1-D: (gap, length) pairs laid
// end to end, so the span count is the byte count halved and inputs land on
// either side of sweepThreshold. 2-D and 3-D: small boxes in a 16-wide
// universe, unioned (they may overlap each other).
func fuzzSpace(dim int8, data []byte) IndexSpace {
	var rects []Rect
	if dim == 1 {
		x := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			lo := x + int64(data[i]%7) + 1 // gap >= 1: spans never touch
			hi := lo + int64(data[i+1]%5)
			rects = append(rects, R1(lo, hi))
			x = hi
		}
		return FromDisjointRects(1, rects)
	}
	for i := 0; i+2*int(dim) <= len(data); i += 2 * int(dim) {
		var lo, hi Point
		lo.Dim, hi.Dim = dim, dim
		for d := 0; d < int(dim); d++ {
			lo.C[d] = int64(data[i+2*d] % 16)
			hi.C[d] = lo.C[d] + int64(data[i+2*d+1]%4)
		}
		rects = append(rects, Rect{lo, hi})
	}
	return FromRects(dim, rects)
}

func checkOverlapsMatchesIntersect(t *testing.T, dim uint8, da, db []byte) {
	d := int8(dim%3) + 1
	a, b := fuzzSpace(d, da), fuzzSpace(d, db)
	want := !a.Intersect(b).Empty()
	if got := a.Overlaps(b); got != want {
		t.Fatalf("dim %d: Overlaps = %v, Intersect non-empty = %v\n a = %v\n b = %v", d, got, want, a, b)
	}
	if got := b.Overlaps(a); got != want {
		t.Fatalf("dim %d: Overlaps is not symmetric (%v one way, %v the other)\n a = %v\n b = %v", d, want, got, a, b)
	}
}

// FuzzOverlapsMatchesIntersect pins the shallow test the race check runs on
// every same-instance access pair to the complete one it replaced:
// Overlaps(a, b) == !Intersect(a, b).Empty().
func FuzzOverlapsMatchesIntersect(f *testing.F) {
	f.Add(uint8(0), []byte{}, []byte{1, 2})
	f.Add(uint8(0), []byte{0, 4, 3, 0}, []byte{5, 0, 0, 0, 2, 2})
	f.Add(uint8(1), []byte{0, 3, 0, 3, 8, 1, 8, 1}, []byte{4, 0, 2, 3})
	f.Add(uint8(1), []byte{0, 0, 0, 0}, []byte{1, 0, 1, 0})
	f.Add(uint8(2), []byte{0, 3, 0, 3, 0, 3}, []byte{3, 1, 3, 1, 3, 1, 9, 0, 9, 0, 9, 0})
	// 1-D past sweepThreshold. long is [4,5] [9,10] [14,15] ...; inter is
	// the same shifted by two, so the lists interleave and never meet.
	long := bytes.Repeat([]byte{3, 1}, 80)
	inter := bytes.Clone(long)
	inter[0] = 5
	f.Add(uint8(0), long, inter)
	f.Add(uint8(0), long, []byte{6, 0, 6, 0})                 // sparse against long
	f.Add(uint8(0), long, bytes.Repeat([]byte{6, 0}, 40))     // period 7 against period 5
	f.Add(uint8(0), long[:60], bytes.Repeat([]byte{6, 4}, 8)) // below the threshold
	f.Fuzz(checkOverlapsMatchesIntersect)
}

func TestOverlapsMatchesIntersectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sweeps := 0
	for iter := 0; iter < 3000; iter++ {
		da, db := make([]byte, rng.Intn(120)), make([]byte, rng.Intn(120))
		rng.Read(da)
		rng.Read(db)
		dim := uint8(rng.Intn(3))
		if dim == 0 && len(da)/2+len(db)/2 > sweepThreshold {
			sweeps++
		}
		checkOverlapsMatchesIntersect(t, dim, da, db)
	}
	if sweeps == 0 {
		t.Fatal("no 1-D input crossed sweepThreshold")
	}
}

// TestStringsMatchFmt pins the AppendInt-built String methods to the nested
// fmt.Sprintf forms they replaced, and to literal text.
func TestStringsMatchFmt(t *testing.T) {
	fmtPoint := func(p Point) string {
		switch p.Dim {
		case 1:
			return fmt.Sprintf("<%d>", p.C[0])
		case 2:
			return fmt.Sprintf("<%d,%d>", p.C[0], p.C[1])
		}
		return fmt.Sprintf("<%d,%d,%d>", p.C[0], p.C[1], p.C[2])
	}
	fmtRect := func(r Rect) string {
		if r.Empty() {
			return "[empty]"
		}
		return "[" + fmtPoint(r.Lo) + ".." + fmtPoint(r.Hi) + "]"
	}
	fmtSpace := func(s IndexSpace) string {
		parts := make([]string, len(spansOf(s)))
		for i, r := range spansOf(s) {
			parts[i] = fmtRect(r)
		}
		return "{" + strings.Join(parts, " ") + "}"
	}
	cases := []struct {
		s    IndexSpace
		want string
	}{
		{EmptyIndexSpace(1), "{}"},
		{EmptyIndexSpace(3), "{}"},
		{NewIndexSpace(R1(-5, 12)), "{[<-5>..<12>]}"},
		{NewIndexSpace(R2(0, 1, 2, 3)), "{[<0,1>..<2,3>]}"},
		{NewIndexSpace(R3(0, -1, 2, 3, 4, 1234567890123)), "{[<0,-1,2>..<3,4,1234567890123>]}"},
		{FromPoints(1, []Point{Pt1(3), Pt1(15), Pt1(16)}), "{[<3>..<3>] [<15>..<16>]}"},
		{FromDisjointRects(2, []Rect{R2(0, 0, 1, 1), R2(4, 4, 4, 9)}), "{[<0,0>..<1,1>] [<4,4>..<4,9>]}"},
		{FromDisjointRects(3, []Rect{R3(0, 0, 0, 1, 1, 1), R3(2, 2, 2, 2, 2, 2), R3(5, 0, 0, 6, 0, 0)}),
			"{[<0,0,0>..<1,1,1>] [<2,2,2>..<2,2,2>] [<5,0,0>..<6,0,0>]}"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want || got != fmtSpace(c.s) {
			t.Errorf("String() = %q, want %q (fmt form %q)", got, c.want, fmtSpace(c.s))
		}
		for _, r := range spansOf(c.s) {
			if r.String() != fmtRect(r) || r.Lo.String() != fmtPoint(r.Lo) {
				t.Errorf("Rect.String() = %q, fmt form %q", r.String(), fmtRect(r))
			}
		}
	}
	if got := EmptyRect(2).String(); got != "[empty]" {
		t.Errorf("empty rect prints %q", got)
	}
	if got := (Point{}).String(); got != "<0,0,0>" {
		t.Errorf("zero point prints %q", got)
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		data := make([]byte, rng.Intn(60))
		rng.Read(data)
		if s := fuzzSpace(int8(iter%3)+1, data); s.String() != fmtSpace(s) {
			t.Fatalf("String() = %q, fmt form %q", s.String(), fmtSpace(s))
		}
	}
}
