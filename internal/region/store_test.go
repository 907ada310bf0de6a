package region

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geometry"
)

func TestLayoutDenseSlots(t *testing.T) {
	l := NewLayout(geometry.NewIndexSpace(geometry.R2(0, 0, 3, 3)))
	if l.Size() != 16 {
		t.Fatalf("size = %d", l.Size())
	}
	if l.Slot(geometry.Pt2(0, 0)) != 0 {
		t.Error("first point should be slot 0")
	}
	if l.Slot(geometry.Pt2(3, 3)) != 15 {
		t.Error("last point should be slot 15")
	}
}

func TestLayoutSparseBijective(t *testing.T) {
	is := geometry.FromRects(1, []geometry.Rect{geometry.R1(5, 9), geometry.R1(20, 22), geometry.R1(0, 1)})
	l := NewLayout(is)
	if l.Size() != 10 {
		t.Fatalf("size = %d", l.Size())
	}
	seen := map[int64]bool{}
	is.Each(func(p geometry.Point) bool {
		s := l.Slot(p)
		if s < 0 || s >= l.Size() || seen[s] {
			t.Fatalf("bad slot %d for %v", s, p)
		}
		seen[s] = true
		return true
	})
}

func TestLayoutEachMatchesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		var rects []geometry.Rect
		for i := 0; i < rng.Intn(4)+1; i++ {
			lo := rng.Int63n(100)
			rects = append(rects, geometry.R1(lo, lo+rng.Int63n(10)))
		}
		is := geometry.FromRects(1, rects)
		l := NewLayout(is)
		count := int64(0)
		l.Each(func(p geometry.Point, slot int64) bool {
			if l.Slot(p) != slot {
				t.Fatalf("Each slot %d != Slot() %d at %v", slot, l.Slot(p), p)
			}
			count++
			return true
		})
		if count != l.Size() {
			t.Fatalf("Each visited %d, size %d", count, l.Size())
		}
	}
}

func TestLayoutSlotPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for point outside layout")
		}
	}()
	NewLayout(geometry.NewIndexSpace(geometry.R1(0, 4))).Slot(geometry.Pt1(5))
}

func TestStoreGetSetFill(t *testing.T) {
	fs := NewFieldSpace("u", "v")
	s := NewStore(geometry.NewIndexSpace(geometry.R1(0, 9)), fs)
	u, v := fs.Field("u"), fs.Field("v")
	s.Set(u, geometry.Pt1(3), 42)
	if got := s.Get(u, geometry.Pt1(3)); got != 42 {
		t.Errorf("get = %v", got)
	}
	if got := s.Get(v, geometry.Pt1(3)); got != 0 {
		t.Errorf("other field disturbed: %v", got)
	}
	s.Fill(v, 7)
	if got := s.Get(v, geometry.Pt1(9)); got != 7 {
		t.Errorf("fill = %v", got)
	}
}

func TestStoreCopyFieldFromIntersection(t *testing.T) {
	fs := NewFieldSpace("x")
	x := fs.Field("x")
	a := NewStore(geometry.NewIndexSpace(geometry.R1(0, 9)), fs)
	b := NewStore(geometry.NewIndexSpace(geometry.R1(5, 14)), fs)
	for i := int64(0); i < 10; i++ {
		a.Set(x, geometry.Pt1(i), float64(i))
	}
	over := a.IndexSpace().Intersect(b.IndexSpace())
	b.CopyFieldFrom(a, x, over)
	for i := int64(5); i <= 9; i++ {
		if got := b.Get(x, geometry.Pt1(i)); got != float64(i) {
			t.Errorf("b[%d] = %v", i, got)
		}
	}
	if got := b.Get(x, geometry.Pt1(14)); got != 0 {
		t.Errorf("point outside intersection modified: %v", got)
	}
}

func TestStoreReduce(t *testing.T) {
	fs := NewFieldSpace("acc")
	f := fs.Field("acc")
	s := NewStore(geometry.NewIndexSpace(geometry.R1(0, 0)), fs)
	p := geometry.Pt1(0)
	s.Reduce(f, ReduceSum, p, 3)
	s.Reduce(f, ReduceSum, p, 4)
	if got := s.Get(f, p); got != 7 {
		t.Errorf("sum = %v", got)
	}
	s.Fill(f, ReduceMin.Identity())
	s.Reduce(f, ReduceMin, p, 5)
	s.Reduce(f, ReduceMin, p, 2)
	s.Reduce(f, ReduceMin, p, 9)
	if got := s.Get(f, p); got != 2 {
		t.Errorf("min = %v", got)
	}
	s.Fill(f, ReduceMax.Identity())
	s.Reduce(f, ReduceMax, p, -5)
	if got := s.Get(f, p); got != -5 {
		t.Errorf("max = %v", got)
	}
}

func TestReduceFieldFromAppliesPartials(t *testing.T) {
	// §4.3: a reduction instance initialized to the identity, folded into
	// the destination with a reduction copy.
	fs := NewFieldSpace("q")
	f := fs.Field("q")
	is := geometry.NewIndexSpace(geometry.R1(0, 4))
	dst := NewStore(is, fs)
	tmp := NewStore(is, fs)
	dst.Fill(f, 10)
	tmp.Fill(f, ReduceSum.Identity())
	tmp.Reduce(f, ReduceSum, geometry.Pt1(2), 5)
	dst.ReduceFieldFrom(tmp, f, ReduceSum, is)
	if got := dst.Get(f, geometry.Pt1(2)); got != 15 {
		t.Errorf("reduced value = %v", got)
	}
	if got := dst.Get(f, geometry.Pt1(0)); got != 10 {
		t.Errorf("identity application changed value: %v", got)
	}
}

func TestReductionOpIdentities(t *testing.T) {
	if ReduceSum.Identity() != 0 {
		t.Error("sum identity")
	}
	if !math.IsInf(ReduceMin.Identity(), 1) {
		t.Error("min identity should be +Inf")
	}
	if !math.IsInf(ReduceMax.Identity(), -1) {
		t.Error("max identity should be -Inf")
	}
}

func TestFieldSpaceLookup(t *testing.T) {
	fs := NewFieldSpace("a", "b")
	if fs.NumFields() != 2 || fs.Name(fs.Field("b")) != "b" {
		t.Error("field lookup broken")
	}
	c := fs.Add("c")
	if fs.Field("c") != c || fs.NumFields() != 3 {
		t.Error("Add broken")
	}
	if len(fs.Fields()) != 3 {
		t.Error("Fields broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown field")
		}
	}()
	fs.Field("zzz")
}

func TestStoreEqualOn(t *testing.T) {
	fs := NewFieldSpace("x")
	f := fs.Field("x")
	is := geometry.NewIndexSpace(geometry.R1(0, 9))
	a, b := NewStore(is, fs), NewStore(is, fs)
	if !a.EqualOn(b, f, is) {
		t.Error("zeroed stores should be equal")
	}
	b.Set(f, geometry.Pt1(4), 1)
	if a.EqualOn(b, f, is) {
		t.Error("differing stores reported equal")
	}
	if !a.EqualOn(b, f, geometry.NewIndexSpace(geometry.R1(5, 9))) {
		t.Error("restriction excluding the difference should be equal")
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestNewStoreOfHoldsOnlyListedFields: a store made for 2 of 7 fields
// allocates storage for those 2 only, holds and clones exactly them, and
// every guarded method panics, naming the store's space and the field,
// when asked for one of the other 5.
func TestNewStoreOfHoldsOnlyListedFields(t *testing.T) {
	fs := NewFieldSpace("a", "b", "c", "d", "e", "f", "g")
	held := []FieldID{fs.Field("f"), fs.Field("b")}
	is := geometry.NewIndexSpace(geometry.R1(0, 4095))
	l := NewLayout(is)
	s := l.NewStoreOf(fs, held)
	if got, want := s.Fields(), []FieldID{fs.Field("b"), fs.Field("f")}; !slices.Equal(got, want) {
		t.Fatalf("Fields() = %v, want %v", got, want)
	}
	s.Set(held[0], geometry.Pt1(7), 3)
	c := s.Clone()
	if !slices.Equal(c.Fields(), s.Fields()) || c.Get(held[0], geometry.Pt1(7)) != 3 {
		t.Fatalf("clone holds %v with f<7> = %v", c.Fields(), c.Get(held[0], geometry.Pt1(7)))
	}
	if all := NewStore(is, fs).Fields(); len(all) != fs.NumFields() {
		t.Fatalf("NewStore holds %v, want every field", all)
	}
	if !raceEnabled { // the race detector changes what is allocated
		var sink *Store
		per := bytesPerCall(func() { sink = l.NewStoreOf(fs, held) })
		if limit := float64(2*l.Size()*8 + 512); per > limit {
			t.Errorf("NewStoreOf with 2 of 7 fields allocates %.0f bytes, want at most %.0f", per, limit)
		}
		_ = sink
	}

	a := fs.Field("a")
	want := "region: store over " + is.String() + " holds no field a"
	full := NewStore(is, fs)
	for name, call := range map[string]func(){
		"Raw":               func() { s.Raw(a) },
		"Fill":              func() { s.Fill(a, 1) },
		"Rows":              func() { s.Rows(a, is, func(geometry.Point, []float64) bool { return true }) },
		"CopyFieldFrom":     func() { s.CopyFieldFrom(full, a, is) },
		"CopyFieldFrom/src": func() { full.CopyFieldFrom(s, a, is) },
		"ReduceFieldFrom":   func() { s.ReduceFieldFrom(full, a, ReduceSum, is) },
		"EqualOn":           func() { full.EqualOn(s, a, is) },
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%s of a field not held: panic %v, want %q", name, got, want)
				}
			}()
			call()
		}()
	}
}

// bytesPerCall returns what fn allocates per call, in bytes, by the
// TotalAlloc delta over repetitions.
func bytesPerCall(fn func()) float64 {
	const reps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / reps
}
