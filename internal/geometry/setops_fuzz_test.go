package geometry

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The point-set oracle: every set operation is checked against the same
// operation on map[Point]struct{}, and every result against the
// representation invariants the rest of the system relies on (volumes feed
// modeled copy sizes, span order feeds instance layouts and witness text).

type oracleSet = map[Point]struct{}

// setopsSpace decodes bytes into an index space and the point set it must
// denote. The first byte picks the constructor. 1-D: (gap, length) pairs
// laid end to end, gap 0 meaning the span touches its predecessor
// (hi+1 == lo), so the span count is about half the byte count and inputs
// land on either side of sweepThreshold and coalesceLimit. 2-D and 3-D:
// small boxes that may overlap each other, enough of them to cross
// xIndexThreshold and coalesceLimit.
func setopsSpace(dim int8, data []byte) (IndexSpace, oracleSet) {
	set := oracleSet{}
	if len(data) == 0 {
		return EmptyIndexSpace(dim), set
	}
	mode, data := data[0], data[1:]
	var rects []Rect
	if dim == 1 {
		x := int64(-1)
		for i := 0; i+1 < len(data); i += 2 {
			lo := x + 1 + int64(data[i]%6)
			hi := lo + int64(data[i+1]%5)
			rects = append(rects, R1(lo, hi))
			x = hi
		}
	} else {
		universe := int64(40)
		if dim == 3 {
			universe = 12
		}
		for i := 0; i+2*int(dim) <= len(data); i += 2 * int(dim) {
			var lo, hi Point
			lo.Dim, hi.Dim = dim, dim
			for d := 0; d < int(dim); d++ {
				lo.C[d] = int64(data[i+2*d]) % universe
				hi.C[d] = lo.C[d] + int64(data[i+2*d+1]%4)
			}
			rects = append(rects, Rect{lo, hi})
		}
	}
	var pts []Point
	for _, r := range rects {
		r.Each(func(p Point) bool { set[p] = struct{}{}; pts = append(pts, p); return true })
	}
	switch {
	case mode%3 == 2:
		slices.Reverse(pts) // unsorted, and 2-/3-D boxes repeat points
		return FromPoints(dim, pts), set
	case dim == 1 && mode%3 == 1:
		slices.Reverse(rects)
		return FromDisjointRects(1, rects), set
	case dim == 1:
		return FromDisjointRects(1, rects), set
	case mode%3 == 1:
		singles := make([]IndexSpace, len(rects))
		for i, r := range rects {
			singles[i] = NewIndexSpace(r)
		}
		return UnionMany(dim, singles), set
	}
	return FromRects(dim, rects), set
}

// spansOf decodes the span list of s.
func spansOf(s IndexSpace) []Rect {
	out := make([]Rect, s.NumSpans())
	for i := range out {
		out[i] = s.Span(i)
	}
	return out
}

// fromSpans builds the space with exactly the given span list.
func fromSpans(dim int8, spans []Rect) IndexSpace {
	s := IndexSpace{dim: dim}
	for _, r := range spans {
		s.b = appendSpan(s.b, r)
	}
	return s
}

// subtractRect is appendSubtract on rectangles.
func subtractRect(out []Rect, a, b Rect) []Rect {
	return append(out, spansOf(IndexSpace{dim: a.Dim(), b: appendSubtract(nil, appendSpan(nil, a), appendSpan(nil, b))})...)
}

func checkRepresentation(t *testing.T, label string, s IndexSpace) {
	t.Helper()
	spans := spansOf(s)
	if len(s.b) != s.NumSpans()*s.w() {
		t.Fatalf("%s: %d bounds do not make whole spans of dimension %d", label, len(s.b), s.dim)
	}
	for i, r := range spans {
		if r.Empty() || r.Dim() != s.dim {
			t.Fatalf("%s: span %d of %v is empty or of the wrong dimension", label, i, s)
		}
		if s.dim == 1 {
			if i > 0 && r.Lo.X() <= spans[i-1].Hi.X() {
				t.Fatalf("%s: 1-D spans %v and %v are not sorted and disjoint", label, spans[i-1], r)
			}
			continue
		}
		for j := 0; j < i; j++ {
			if r.Overlaps(spans[j]) {
				t.Fatalf("%s: spans %v and %v overlap", label, spans[j], r)
			}
		}
	}
}

// checkSet asserts the invariants and that got denotes exactly want: with
// disjoint spans, an equal volume and no foreign point make the sets equal.
func checkSet(t *testing.T, label string, got IndexSpace, want oracleSet) {
	t.Helper()
	checkRepresentation(t, label, got)
	if got.Volume() != int64(len(want)) {
		t.Fatalf("%s: volume %d, want %d\n got %v", label, got.Volume(), len(want), got)
	}
	got.Each(func(p Point) bool {
		if _, ok := want[p]; !ok {
			t.Fatalf("%s: foreign point %v\n got %v", label, p, got)
		}
		return true
	})
}

func checkSpans(t *testing.T, label string, got IndexSpace, want []Rect) {
	t.Helper()
	if !slices.Equal(spansOf(got), want) {
		t.Fatalf("%s: spans differ from the reference path\n got  %v\n want %v", label, got, fromSpans(got.dim, want))
	}
}

func oracleIntersect(a, b oracleSet) oracleSet {
	out := oracleSet{}
	for p := range a {
		if _, ok := b[p]; ok {
			out[p] = struct{}{}
		}
	}
	return out
}

func oracleSubtract(a, b oracleSet) oracleSet {
	out := oracleSet{}
	for p := range a {
		if _, ok := b[p]; !ok {
			out[p] = struct{}{}
		}
	}
	return out
}

func oracleUnion(sets ...oracleSet) oracleSet {
	out := oracleSet{}
	for _, s := range sets {
		for p := range s {
			out[p] = struct{}{}
		}
	}
	return out
}

// canonicalRuns1D is the one representation of a 1-D set with no two spans
// touching: what FromPoints and UnionMany return.
func canonicalRuns1D(set oracleSet) []Rect {
	xs := make([]int64, 0, len(set))
	for p := range set {
		xs = append(xs, p.X())
	}
	slices.Sort(xs)
	var out []Rect
	for _, x := range xs {
		if n := len(out); n > 0 && out[n-1].Hi.X()+1 == x {
			out[n-1].Hi = Pt1(x)
		} else {
			out = append(out, R1(x, x))
		}
	}
	return out
}

// genericIntersect1D is Intersect's all-pairs path, whatever the span count.
func genericIntersect1D(a, b []Rect) []Rect {
	var out []Rect
	for _, x := range a {
		for _, y := range b {
			if c := x.Intersect(y); !c.Empty() {
				out = append(out, c)
			}
		}
	}
	slices.SortFunc(out, func(a, b Rect) int { return cmp.Compare(a.Lo.X(), b.Lo.X()) })
	return out
}

// genericSubtract1D carves every span of a with every span of b, as
// Subtract's generic path does, without its coalescing pass (which the
// sweep never had): the maximal pieces of each minuend span.
func genericSubtract1D(a, b []Rect) []Rect {
	var out []Rect
	for _, x := range a {
		work := []Rect{x}
		for _, y := range b {
			var next []Rect
			for _, w := range work {
				next = subtractRect(next, w, y)
			}
			work = next
		}
		out = append(out, work...)
	}
	slices.SortFunc(out, func(a, b Rect) int { return cmp.Compare(a.Lo.X(), b.Lo.X()) })
	return out
}

// genericUnionMany is UnionMany's multi-dimensional carve with every
// accumulated span scanned, as inputs under xIndexThreshold run it.
func genericUnionMany(dim int8, spaces []IndexSpace) IndexSpace {
	var acc []Rect
	for _, sp := range spaces {
		for _, r := range spansOf(sp) {
			work := []Rect{r}
			for _, a := range acc {
				var next []Rect
				for _, w := range work {
					next = subtractRect(next, w, a)
				}
				work = next
			}
			acc = append(acc, work...)
		}
	}
	out := fromSpans(dim, acc)
	out.coalesce()
	return out
}

func checkSetOps(t *testing.T, dimSel uint8, da, db, dc []byte) {
	dim := int8(dimSel%3) + 1
	a, sa := setopsSpace(dim, da)
	b, sb := setopsSpace(dim, db)
	c, sc := setopsSpace(dim, dc)

	// Every space an operation sees or returns is snapshotted; none may have
	// changed by the end, whatever storage results share with operands.
	type snapshot struct {
		label string
		s     IndexSpace
		spans []Rect
	}
	var tracked []snapshot
	track := func(label string, s IndexSpace, want oracleSet) IndexSpace {
		t.Helper()
		checkSet(t, label, s, want)
		tracked = append(tracked, snapshot{label, s, spansOf(s)})
		return s
	}
	track("a", a, sa)
	track("b", b, sb)
	track("c", c, sc)

	sab, sba := oracleIntersect(sa, sb), oracleSubtract(sb, sa)
	ab := track("a∩b", a.Intersect(b), sab)
	track("b∩a", b.Intersect(a), sab)
	track("a∩a", a.Intersect(a), sa)
	aMinusB := track("a−b", a.Subtract(b), oracleSubtract(sa, sb))
	bMinusA := track("b−a", b.Subtract(a), sba)
	track("a−a", a.Subtract(a), oracleSet{})
	aub := track("a∪b", a.Union(b), oracleUnion(sa, sb))
	track("b∪a", b.Union(a), oracleUnion(sa, sb))
	all := track("UnionMany(a,b,c)", UnionMany(dim, []IndexSpace{a, b, c}), oracleUnion(sa, sb, sc))
	track("UnionMany(b,b,a)", UnionMany(dim, []IndexSpace{b, b, a}), oracleUnion(sa, sb))
	track("UnionMany()", UnionMany(dim, nil), oracleSet{})
	track("UnionMany(c)", UnionMany(dim, []IndexSpace{c}), sc)

	// Results feed further operations: a result that shares an operand's
	// storage must not let the next operation write through it.
	track("(a∩b)∪c", ab.Union(c), oracleUnion(sab, sc))
	track("(a−b)∪(b−a)", aMinusB.Union(bMinusA), oracleUnion(oracleSubtract(sa, sb), sba))
	track("(a∪b)−c", aub.Subtract(c), oracleSubtract(oracleUnion(sa, sb), sc))
	track("(a∪b∪c)∩a", all.Intersect(a), sa)
	track("(a−b)∩b", aMinusB.Intersect(b), oracleSet{})

	pts := make([]Point, 0, 2*len(sa))
	a.Each(func(p Point) bool { pts = append(pts, p); return true })
	pts = append(pts, pts...) // every point twice
	rand.New(rand.NewSource(int64(len(pts)))).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	before := slices.Clone(pts)
	fromPts := track("FromPoints(a)", FromPoints(dim, pts), sa)
	if !slices.Equal(pts, before) {
		t.Fatal("FromPoints reordered its argument")
	}

	predicates := []struct {
		label     string
		got, want bool
	}{
		{"a.ContainsAll(b)", a.ContainsAll(b), len(sba) == 0},
		{"b.ContainsAll(a)", b.ContainsAll(a), len(oracleSubtract(sa, sb)) == 0},
		{"a.ContainsAll(a∩b)", a.ContainsAll(ab), true},
		{"(a∪b).ContainsAll(a)", aub.ContainsAll(a), true},
		{"(a∪b).ContainsAll(b)", aub.ContainsAll(b), true},
		{"(a∩b).ContainsAll(a)", ab.ContainsAll(a), len(sab) == len(sa)},
		{"(a−b).ContainsAll(a)", aMinusB.ContainsAll(a), len(sab) == 0},
		{"a.Overlaps(b)", a.Overlaps(b), len(sab) > 0},
		{"b.Overlaps(a)", b.Overlaps(a), len(sab) > 0},
		{"(a−b).Overlaps(b)", aMinusB.Overlaps(b), false},
		{"a.Equal(b)", a.Equal(b), len(sba) == 0 && len(sa) == len(sb)},
		{"a.Equal(a)", a.Equal(a), true},
		{"a.Equal(FromPoints(a))", a.Equal(fromPts), true},
		{"(a∪b).Equal(b∪a)", aub.Equal(b.Union(a)), true},
		{"(a∪b).Equal(a)", aub.Equal(a), len(sba) == 0},
		{"a.Equal(a∩b)", a.Equal(ab), len(sab) == len(sa)},
	}
	for _, p := range predicates {
		if p.got != p.want {
			t.Fatalf("dim %d: %s = %v, want %v\n a = %v\n b = %v", dim, p.label, p.got, p.want, a, b)
		}
	}
	for _, v := range []struct {
		label string
		got   int64
	}{{"a.OverlapVolume(b)", a.OverlapVolume(b)}, {"b.OverlapVolume(a)", b.OverlapVolume(a)}} {
		if v.got != int64(len(sab)) {
			t.Fatalf("dim %d: %s = %d, want %d\n a = %v\n b = %v", dim, v.label, v.got, len(sab), a, b)
		}
	}

	// Sweep and indexed paths against the quadratic reference paths: the
	// same spans in the same order, not merely the same set.
	if dim == 1 {
		checkSpans(t, "a∩b", ab, genericIntersect1D(spansOf(a), spansOf(b)))
		if a.NumSpans()+b.NumSpans() > sweepThreshold {
			checkSpans(t, "a−b", aMinusB, genericSubtract1D(spansOf(a), spansOf(b)))
			checkSpans(t, "b−a", bMinusA, genericSubtract1D(spansOf(b), spansOf(a)))
		}
		checkSpans(t, "UnionMany(a,b,c)", all, canonicalRuns1D(oracleUnion(sa, sb, sc)))
		checkSpans(t, "FromPoints(a)", fromPts, canonicalRuns1D(sa))
	} else {
		checkSpans(t, "UnionMany(a,b,c)", all, spansOf(genericUnionMany(dim, []IndexSpace{a, b, c})))
	}

	for _, s := range tracked {
		if !slices.Equal(spansOf(s.s), s.spans) {
			t.Fatalf("dim %d: the spans of %s changed under a later operation\n was %v\n now %v",
				dim, s.label, fromSpans(dim, s.spans), s.s)
		}
	}
	checkTranslated(t, a, b, c)
}

// checkTranslated: moving the operands so that their largest coordinate on
// every axis is MaxInt64 moves every result with them, span for span, and
// leaves every predicate and volume as it was. No step may compute past the
// top of int64.
func checkTranslated(t *testing.T, a, b, c IndexSpace) {
	t.Helper()
	dim := a.Dim()
	by := Point{Dim: dim}
	for k := 0; k < int(dim); k++ {
		top := int64(math.MinInt64)
		for _, s := range []IndexSpace{a, b, c} {
			for _, r := range spansOf(s) {
				top = max(top, r.Hi.C[k])
			}
		}
		if top == math.MinInt64 {
			return // all three are empty
		}
		by.C[k] = math.MaxInt64 - top
	}
	move := func(s IndexSpace) IndexSpace {
		spans := spansOf(s)
		for i := range spans {
			spans[i] = Rect{spans[i].Lo.Add(by), spans[i].Hi.Add(by)}
		}
		return fromSpans(dim, spans)
	}
	ma, mb, mc := move(a), move(b), move(c)
	for _, r := range []struct {
		label     string
		got, want IndexSpace
	}{
		{"a∩b", ma.Intersect(mb), move(a.Intersect(b))},
		{"a−b", ma.Subtract(mb), move(a.Subtract(b))},
		{"b−a", mb.Subtract(ma), move(b.Subtract(a))},
		{"a∪b", ma.Union(mb), move(a.Union(b))},
		{"UnionMany(a,b,c)", UnionMany(dim, []IndexSpace{ma, mb, mc}), move(UnionMany(dim, []IndexSpace{a, b, c}))},
		{"UnionMany(c,b,a)", UnionMany(dim, []IndexSpace{mc, mb, ma}), move(UnionMany(dim, []IndexSpace{c, b, a}))},
		{"FromPoints(a)", FromPoints(dim, ma.Points()), move(FromPoints(dim, a.Points()))},
	} {
		checkSpans(t, "moved "+r.label, r.got, spansOf(r.want))
	}
	for _, p := range []struct {
		label     string
		got, want any
	}{
		{"a.ContainsAll(b)", ma.ContainsAll(mb), a.ContainsAll(b)},
		{"b.ContainsAll(a)", mb.ContainsAll(ma), b.ContainsAll(a)},
		{"a.Overlaps(b)", ma.Overlaps(mb), a.Overlaps(b)},
		{"a.OverlapVolume(b)", ma.OverlapVolume(mb), a.OverlapVolume(b)},
		{"a.Equal(b)", ma.Equal(mb), a.Equal(b)},
		{"a.Volume()", ma.Volume(), a.Volume()},
	} {
		if p.got != p.want {
			t.Fatalf("dim %d: moved %s = %v, want %v\n a = %v\n b = %v", dim, p.label, p.got, p.want, ma, mb)
		}
	}
}

// setopsRun encodes n spans of the given (gap, length) bytes.
func setopsRun(mode byte, n int, gap, length byte) []byte {
	return append([]byte{mode}, bytes.Repeat([]byte{gap, length}, n)...)
}

// FuzzSetOpsMatchPointSet checks Intersect, Subtract, Union, UnionMany,
// ContainsAll, Overlaps, OverlapVolume, Equal, Volume and FromPoints against
// the point-set oracle in one to three dimensions, on both sides of
// sweepThreshold, xIndexThreshold and coalesceLimit.
func FuzzSetOpsMatchPointSet(f *testing.F) {
	one := []byte{0, 3, 2}
	f.Add(uint8(0), []byte{}, []byte{}, []byte{})
	f.Add(uint8(0), one, []byte{}, one)
	f.Add(uint8(0), setopsRun(0, 500, 1, 1), []byte{0, 200, 4}, []byte{2, 0, 0}) // 500 spans against 1
	f.Add(uint8(0), []byte{0, 255, 4, 255, 4}, setopsRun(1, 500, 2, 0), one)     // 2 against 500
	f.Add(uint8(0), setopsRun(0, 40, 0, 2), setopsRun(0, 40, 0, 1), one)         // touching spans, over the sweep
	f.Add(uint8(0), setopsRun(0, 20, 0, 2), setopsRun(1, 20, 1, 0), one)         // touching spans, under it
	f.Add(uint8(0), setopsRun(0, 70, 3, 1), setopsRun(0, 70, 3, 1), setopsRun(2, 70, 3, 1))
	f.Add(uint8(0), setopsRun(2, 130, 1, 3), setopsRun(0, 3, 5, 4), setopsRun(1, 66, 0, 0))
	f.Add(uint8(0), setopsRun(0, 33, 2, 2), setopsRun(0, 31, 4, 0), setopsRun(0, 200, 0, 4))
	// 2-D and 3-D: a lattice of disjoint boxes past coalesceLimit against a
	// few large ones, identical operands, and every point twice.
	var lattice2, lattice3 []byte
	for x := byte(0); x < 36; x += 3 {
		for y := byte(0); y < 36; y += 3 {
			lattice2 = append(lattice2, x, 1, y, 1)
		}
	}
	for x := byte(0); x < 12; x += 2 {
		for y := byte(0); y < 12; y += 2 {
			lattice3 = append(lattice3, x, 0, y, 0, 0, 3, x, 0, y, 0, 6, 3)
		}
	}
	big2 := []byte{0, 0, 3, 0, 3, 20, 3, 20, 3, 5, 0, 30, 3}
	f.Add(uint8(1), append([]byte{1}, lattice2...), big2, append([]byte{2}, lattice2[:200]...))
	f.Add(uint8(1), append([]byte{0}, lattice2[:160]...), append([]byte{0}, lattice2[:160]...), big2)
	f.Add(uint8(1), big2, append([]byte{2}, lattice2[:120]...), []byte{})
	f.Add(uint8(2), append([]byte{1}, lattice3...), []byte{0, 0, 3, 0, 3, 0, 3, 5, 2, 5, 2, 5, 2}, append([]byte{2}, lattice3[:60]...))
	f.Add(uint8(2), append([]byte{0}, lattice3[:240]...), append([]byte{1}, lattice3[120:]...), []byte{})
	f.Fuzz(checkSetOps)
}

func TestSetOpsMatchPointSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Span counts on both sides of xIndexThreshold (32), sweepThreshold (64,
	// on the operands' sum) and coalesceLimit (128), and lopsided pairs.
	sizes := []int{0, 1, 2, 5, 14, 30, 34, 62, 66, 126, 130, 300, 500}
	draw := func(dim int8) []byte {
		n := rng.Intn(40)
		switch {
		case dim == 1 && rng.Intn(3) == 0:
			n = sizes[rng.Intn(len(sizes))]
		case dim > 1 && rng.Intn(12) == 0:
			n = []int{34, 60, 130}[rng.Intn(3)] // boxes; they fragment into more spans
		case dim > 1:
			n = rng.Intn(12)
		}
		data := make([]byte, 1+2*int(dim)*n)
		rng.Read(data)
		return data
	}
	crossed := map[string]int{}
	iters := 2500
	if testing.Short() {
		iters = 300
	}
	for iter := 0; iter < iters; iter++ {
		dimSel := uint8(rng.Intn(4) % 3) // 1-D twice as often: it has the sweeps
		dim := int8(dimSel) + 1
		da, db, dc := draw(dim), draw(dim), draw(dim)
		if rng.Intn(10) == 0 {
			db = da // identical operands
		}
		a, _ := setopsSpace(dim, da)
		b, _ := setopsSpace(dim, db)
		switch n := a.NumSpans() + b.NumSpans(); {
		case dim == 1 && n > sweepThreshold:
			crossed["sweep"]++
		case dim == 1:
			crossed["generic"]++
		case a.NumSpans() > coalesceLimit:
			crossed["coalesceLimit"]++
		case a.NumSpans() > xIndexThreshold:
			crossed["xIndex"]++
		}
		checkSetOps(t, dimSel, da, db, dc)
	}
	for _, k := range []string{"sweep", "generic", "coalesceLimit", "xIndex"} {
		if crossed[k] == 0 && !testing.Short() {
			t.Errorf("no case on the %q side of its threshold", k)
		}
	}
}
