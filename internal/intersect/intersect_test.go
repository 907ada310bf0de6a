package intersect

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/region"
)

func TestPairsBlockVsHalo1D(t *testing.T) {
	tr := region.NewTree()
	n := int64(40)
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	pb := r.Block("PB", 4) // 0..9, 10..19, 20..29, 30..39
	// Ghost partition: each color's block extended by one on each side.
	qb := region.ImageRects(r, pb, "QB", func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{geometry.R1(b.Lo.X()-1, b.Hi.X()+1)}
	})
	pairs := Pairs(pb, qb)
	// QB[j] overlaps PB[j] fully plus one element of PB[j-1] and PB[j+1].
	counts := map[geometry.Point]int{}
	for _, p := range pairs {
		counts[p.Dst]++
		if p.Overlap.Empty() {
			t.Errorf("empty overlap in pair %v", p)
		}
	}
	if counts[geometry.Pt1(0)] != 2 { // PB[0], PB[1]
		t.Errorf("QB[0] pairs = %d, want 2", counts[geometry.Pt1(0)])
	}
	if counts[geometry.Pt1(1)] != 3 { // PB[0..2]
		t.Errorf("QB[1] pairs = %d, want 3", counts[geometry.Pt1(1)])
	}
	// The cross-block overlaps are single elements.
	for _, p := range pairs {
		if p.Src != p.Dst && p.Overlap.Volume() != 1 {
			t.Errorf("cross pair %v..%v overlap volume %d, want 1", p.Src, p.Dst, p.Overlap.Volume())
		}
	}
}

func TestPairs2DGrid(t *testing.T) {
	tr := region.NewTree()
	g := tr.NewRegion("G", geometry.NewIndexSpace(geometry.R2(0, 0, 39, 39)))
	pg := g.Block2D("PG", 2, 2)
	halo := region.ImageRects(g, pg, "H", func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		b.Lo = b.Lo.Add(geometry.Pt2(-1, -1))
		b.Hi = b.Hi.Add(geometry.Pt2(1, 1))
		return []geometry.Rect{b}
	})
	pairs := Pairs(pg, halo)
	counts := map[geometry.Point]int{}
	for _, p := range pairs {
		counts[p.Dst]++
	}
	// Every halo tile overlaps all four grid tiles (corner point included).
	for _, c := range halo.Colors() {
		if counts[c] != 4 {
			t.Errorf("halo %v pairs = %d, want 4", c, counts[c])
		}
	}
}

func TestShallowConservativeCompleteExact(t *testing.T) {
	// Sparse subregions whose bounding boxes overlap but point sets do not.
	tr := region.NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 99)))
	cs := geometry.NewIndexSpace(geometry.R1(0, 1))
	a := r.BySubsets("a", cs, map[geometry.Point]geometry.IndexSpace{
		geometry.Pt1(0): geometry.FromRects(1, []geometry.Rect{geometry.R1(0, 10), geometry.R1(90, 99)}),
		geometry.Pt1(1): geometry.NewIndexSpace(geometry.R1(40, 60)),
	})
	b := r.BySubsets("b", cs, map[geometry.Point]geometry.IndexSpace{
		geometry.Pt1(0): geometry.NewIndexSpace(geometry.R1(20, 30)),
		geometry.Pt1(1): geometry.NewIndexSpace(geometry.R1(45, 50)),
	})
	// The shallow phase is conservative: a[0]'s bounding interval [0,99]
	// covers b[0]=[20,30] even though the exact point sets are disjoint, so
	// the candidate appears — and the complete phase must filter it.
	sh := Shallow(a, b)
	found := false
	for _, c := range sh {
		if c.Src == geometry.Pt1(0) && c.Dst == geometry.Pt1(0) {
			found = true
		}
	}
	if !found {
		t.Error("bounds-level shallow should conservatively produce the a[0]/b[0] candidate")
	}
	pairs := Complete(a, b, sh)
	if len(pairs) != 1 || pairs[0].Src != geometry.Pt1(1) || pairs[0].Dst != geometry.Pt1(1) {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].Overlap.Volume() != 6 {
		t.Errorf("overlap volume = %d", pairs[0].Overlap.Volume())
	}
}

// Property: Pairs matches brute-force all-pairs intersection on random
// partitions, in both 1-D and 2-D.
func TestPairsMatchBruteForceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		tr := region.NewTree()
		var root *region.Region
		dim := 1 + rng.Intn(2)
		if dim == 1 {
			root = tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 49)))
		} else {
			root = tr.NewRegion("R", geometry.NewIndexSpace(geometry.R2(0, 0, 15, 15)))
		}
		randPart := func(name string, k int64) *region.Partition {
			subs := map[geometry.Point]geometry.IndexSpace{}
			for c := int64(0); c < k; c++ {
				var spans []geometry.Rect
				for s := 0; s < rng.Intn(3)+1; s++ {
					if dim == 1 {
						lo := rng.Int63n(45)
						spans = append(spans, geometry.R1(lo, lo+rng.Int63n(8)))
					} else {
						x, y := rng.Int63n(12), rng.Int63n(12)
						spans = append(spans, geometry.R2(x, y, x+rng.Int63n(4), y+rng.Int63n(4)))
					}
				}
				subs[geometry.Pt1(c)] = geometry.FromRects(int8(dim), spans).Intersect(root.IndexSpace())
			}
			return root.BySubsets(name, geometry.NewIndexSpace(geometry.R1(0, k-1)), subs)
		}
		a := randPart("a", rng.Int63n(5)+1)
		b := randPart("b", rng.Int63n(5)+1)
		got := Pairs(a, b)
		type key struct{ s, d geometry.Point }
		gotMap := map[key]int64{}
		for _, p := range got {
			gotMap[key{p.Src, p.Dst}] = p.Overlap.Volume()
		}
		count := 0
		a.Each(func(ca geometry.Point, sa *region.Region) bool {
			b.Each(func(cb geometry.Point, sb *region.Region) bool {
				ov := sa.IndexSpace().Intersect(sb.IndexSpace())
				if !ov.Empty() {
					count++
					if gotMap[key{ca, cb}] != ov.Volume() {
						t.Fatalf("iter %d: pair (%v,%v) volume %d, want %d", iter, ca, cb, gotMap[key{ca, cb}], ov.Volume())
					}
				} else if _, present := gotMap[key{ca, cb}]; present {
					t.Fatalf("iter %d: spurious pair (%v,%v)", iter, ca, cb)
				}
				return true
			})
			return true
		})
		if count != len(got) {
			t.Fatalf("iter %d: %d pairs, want %d", iter, len(got), count)
		}
	}
}

func TestShallowBruteSupersetOfExactPairs(t *testing.T) {
	tr := region.NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 199)))
	pb := r.Block("PB", 8)
	qb := region.ImageRects(r, pb, "QB", func(is geometry.IndexSpace) []geometry.Rect {
		b := is.Bounds()
		return []geometry.Rect{geometry.R1(b.Lo.X()-3, b.Hi.X()+3)}
	})
	exact := Pairs(pb, qb)
	brute := ShallowBrute(pb, qb)
	seen := map[[2]geometry.Point]bool{}
	for _, c := range brute {
		seen[[2]geometry.Point{c.Src, c.Dst}] = true
	}
	for _, p := range exact {
		if !seen[[2]geometry.Point{p.Src, p.Dst}] {
			t.Fatalf("brute shallow missed exact pair %v->%v", p.Src, p.Dst)
		}
	}
	// And Complete over brute candidates gives the same exact pairs.
	fromBrute := Complete(pb, qb, brute)
	if len(fromBrute) != len(exact) {
		t.Fatalf("complete over brute = %d pairs, want %d", len(fromBrute), len(exact))
	}
}
