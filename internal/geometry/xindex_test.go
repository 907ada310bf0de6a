package geometry

import (
	"math/rand"
	"testing"
)

// xiRandSpaces builds n random 2-D spaces dense enough to push UnionMany and
// ContainsAll past xIndexThreshold, with heavy overlap between spaces.
func xiRandSpaces(rng *rand.Rand, n, rectsPer int) []IndexSpace {
	spaces := make([]IndexSpace, n)
	for i := range spaces {
		rects := make([]Rect, rectsPer)
		for j := range rects {
			lo0, lo1 := rng.Int63n(50), rng.Int63n(50)
			rects[j] = Rect{Lo: Pt2(lo0, lo1), Hi: Pt2(lo0+rng.Int63n(8), lo1+rng.Int63n(8))}
		}
		spaces[i] = FromRects(2, rects)
	}
	return spaces
}

// pointSet materializes a space as a set of points; the reference semantics
// every representation must agree with.
func pointSet(s IndexSpace) map[Point]bool {
	set := make(map[Point]bool)
	s.Each(func(p Point) bool { set[p] = true; return true })
	return set
}

// TestUnionManyIndexedMatchesPointSemantics drives the axis-0-indexed carve
// (span counts above xIndexThreshold) and checks the result against brute
// force point sets, including the pairwise-disjointness invariant.
func TestUnionManyIndexedMatchesPointSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		spaces := xiRandSpaces(rng, 12, 6) // ~72 spans, past the threshold
		got := UnionMany(2, spaces)

		want := make(map[Point]bool)
		for _, sp := range spaces {
			for p := range pointSet(sp) {
				want[p] = true
			}
		}
		gotSet := pointSet(got)
		if len(gotSet) != len(want) {
			t.Fatalf("trial %d: UnionMany has %d points, want %d", trial, len(gotSet), len(want))
		}
		for p := range want {
			if !gotSet[p] {
				t.Fatalf("trial %d: UnionMany missing point %v", trial, p)
			}
		}
		if int64(len(gotSet)) != got.Volume() {
			t.Fatalf("trial %d: spans overlap: Volume()=%d but %d distinct points", trial, got.Volume(), len(gotSet))
		}

		// The indexed path must be representation-identical to the unindexed
		// carve, which small inputs still take: re-run the union one space at
		// a time (each step under the threshold at first) and compare sets.
		acc := EmptyIndexSpace(2)
		for _, sp := range spaces {
			acc = acc.Union(sp)
		}
		if !acc.Equal(got) {
			t.Fatalf("trial %d: UnionMany disagrees with iterated Union", trial)
		}
	}
}

// TestContainsAllIndexedMatchesBruteForce checks the indexed cover test
// against point membership for covering spaces above xIndexThreshold.
func TestContainsAllIndexedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		cover := UnionMany(2, xiRandSpaces(rng, 10, 6))
		if len(spansOf(cover)) <= xIndexThreshold {
			t.Fatalf("trial %d: cover has %d spans, need > %d to exercise the index",
				trial, len(spansOf(cover)), xIndexThreshold)
		}
		coverSet := pointSet(cover)
		for probe := 0; probe < 8; probe++ {
			q := UnionMany(2, xiRandSpaces(rng, 2, 3))
			want := true
			for p := range pointSet(q) {
				if !coverSet[p] {
					want = false
					break
				}
			}
			if got := cover.ContainsAll(q); got != want {
				t.Fatalf("trial %d probe %d: ContainsAll=%v, brute force says %v", trial, probe, got, want)
			}
		}
		// A subset carved out of the cover itself must always be contained.
		sub := cover.Intersect(NewIndexSpace(Rect{Lo: Pt2(10, 10), Hi: Pt2(40, 40)}))
		if !cover.ContainsAll(sub) {
			t.Fatalf("trial %d: cover does not contain its own intersection", trial)
		}
	}
}
