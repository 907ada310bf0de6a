package geometry

import (
	"math"
	"math/rand"
	"testing"
)

// TestSubtractDoesNotMutateReceiver guards against the aliasing bug the
// original Subtract had: with an empty (or non-overlapping) subtrahend the
// result shared the receiver's span slice, and the in-place coalesce then
// merged and shifted entries of that shared backing array — leaving the
// receiver with a duplicated trailing span and an inflated Volume(). The
// inflated volumes leaked into modeled copy sizes (BytesSent) of every
// engine run.
func TestSubtractDoesNotMutateReceiver(t *testing.T) {
	mk := func(lo0, lo1, hi0, hi1 int64) Rect {
		return Rect{Lo: Pt2(lo0, lo1), Hi: Pt2(hi0, hi1)}
	}
	// The first two spans coalesce into one rectangle; the third is separate.
	fresh := func() IndexSpace {
		return fromSpans(2, []Rect{mk(0, 0, 0, 9), mk(1, 0, 1, 9), mk(5, 5, 6, 6)})
	}

	s := fresh()
	if got := s.Subtract(EmptyIndexSpace(2)); got.Volume() != 24 {
		t.Errorf("Subtract(empty) volume = %d, want 24", got.Volume())
	}
	if s.Volume() != 24 {
		t.Errorf("receiver volume after Subtract(empty) = %d, want 24 (receiver was mutated)", s.Volume())
	}

	// Non-overlapping subtrahend exercises the nothing-carved path.
	s = fresh()
	far := NewIndexSpace(mk(100, 100, 101, 101))
	if got := s.Subtract(far); got.Volume() != 24 {
		t.Errorf("Subtract(disjoint) volume = %d, want 24", got.Volume())
	}
	if s.Volume() != 24 {
		t.Errorf("receiver volume after Subtract(disjoint) = %d, want 24 (receiver was mutated)", s.Volume())
	}

	// Union's first step (empty ∪ s) goes through Subtract with an empty
	// subtrahend; the argument must survive too.
	s = fresh()
	if u := EmptyIndexSpace(2).Union(s); u.Volume() != 24 {
		t.Errorf("empty.Union(s) volume = %d, want 24", u.Volume())
	}
	if s.Volume() != 24 {
		t.Errorf("union argument volume = %d, want 24 (argument was mutated)", s.Volume())
	}
}

func regRandRect(rng *rand.Rand, dim int8) Rect {
	var lo, hi Point
	lo.Dim, hi.Dim = dim, dim
	for i := 0; i < int(dim); i++ {
		a := rng.Int63n(20)
		b := a + rng.Int63n(6)
		lo.C[i], hi.C[i] = a, b
	}
	return Rect{lo, hi}
}

func regRandSpace(rng *rand.Rand, dim int8, n int) IndexSpace {
	out := EmptyIndexSpace(dim)
	for i := 0; i < n; i++ {
		out = out.Union(NewIndexSpace(regRandRect(rng, dim)))
	}
	return out
}

// TestSetOpsDifferential cross-checks the optimized Subtract, ContainsAll,
// and UnionMany against point-membership ground truth and each other on
// randomized small spaces, and verifies every result maintains the
// pairwise-disjoint span invariant (Volume, and therefore all modeled copy
// sizes, silently double-count without it).
func TestSetOpsDifferential(t *testing.T) {
	assertDisjoint := func(iter int, label string, s IndexSpace) {
		spans := spansOf(s)
		for i := 0; i < len(spans); i++ {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].Overlaps(spans[j]) {
					t.Fatalf("iter %d: overlapping spans in %s result %v", iter, label, s)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		dim := int8(rng.Intn(2) + 1)
		a := regRandSpace(rng, dim, rng.Intn(5))
		b := regRandSpace(rng, dim, rng.Intn(5))

		sub := a.Subtract(b)
		assertDisjoint(iter, "Subtract", sub)
		want := int64(0)
		a.Each(func(p Point) bool {
			if !b.Contains(p) {
				want++
				if !sub.Contains(p) {
					t.Fatalf("iter %d: %v \\ %v missing point %v", iter, a, b, p)
				}
			} else if sub.Contains(p) {
				t.Fatalf("iter %d: %v \\ %v has extra point %v", iter, a, b, p)
			}
			return true
		})
		if sub.Volume() != want {
			t.Fatalf("iter %d: Subtract volume %d, want %d", iter, sub.Volume(), want)
		}

		if got, want := a.ContainsAll(b), b.Subtract(a).Empty(); got != want {
			t.Fatalf("iter %d: ContainsAll = %v, want %v (a=%v b=%v)", iter, got, want, a, b)
		}

		var sp []IndexSpace
		for k := 0; k < rng.Intn(6); k++ {
			sp = append(sp, regRandSpace(rng, dim, rng.Intn(4)))
		}
		um := UnionMany(dim, sp)
		assertDisjoint(iter, "UnionMany", um)
		naive := EmptyIndexSpace(dim)
		for _, s := range sp {
			naive = naive.Union(s)
		}
		if !um.Equal(naive) {
			t.Fatalf("iter %d: UnionMany %v != iterated union %v", iter, um, naive)
		}
	}
}

// TestSweepsAtTopOfInt64: spans ending at MaxInt64 once made the sweeps
// compute hi+1 and wrap around to MinInt64.
func TestSweepsAtTopOfInt64(t *testing.T) {
	const m = math.MaxInt64
	// 70 spans [0,1] [10,11] ... [690,691], then [m-5, m]: past sweepThreshold.
	long := FromDisjointRects(1, append(spansOf(strided1D(70, 10, 0, 2)), R1(m-5, m)))
	if !long.ContainsAll(NewIndexSpace(R1(m-3, m))) || !long.ContainsAll(strided1D(1, 1, m-1, 2)) {
		t.Errorf("%v does not contain [m-3, m]", long)
	}
	if u := UnionMany(1, []IndexSpace{NewIndexSpace(R1(m-10, m)), NewIndexSpace(R1(m-4, m-3))}); u.Volume() != 11 || u.NumSpans() != 1 {
		t.Errorf("UnionMany of [m-10, m] and [m-4, m-3] = %v, volume %d; want one span of 11", u, u.Volume())
	}
	minus := strided1D(70, 10, 0, 2).Subtract(NewIndexSpace(R1(5, m)))
	if minus.Volume() != 2 || minus.String() != "{[<0>..<1>]}" {
		t.Errorf("70 spans minus [5, m] = %v, volume %d; want {[<0>..<1>]}", minus, minus.Volume())
	}
}
