package intersect_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/geometry"
	"repro/internal/harness"
	"repro/internal/intersect"
	"repro/internal/region"
)

// checkAgainstBruteForce holds the two-phase result to the all-pairs one:
// Pairs is the list of non-empty Intersects in (destination colour, source
// colour) order with the same overlap spans, Shallow proposes every pair
// ShallowBrute proposes and Complete confirms.
func checkAgainstBruteForce(t *testing.T, src, dst *region.Partition) {
	t.Helper()
	var want []intersect.Pair
	for _, dc := range dst.Colors() {
		for _, sc := range src.Colors() {
			if ov := src.Sub(sc).IndexSpace().Intersect(dst.Sub(dc).IndexSpace()); !ov.Empty() {
				want = append(want, intersect.Pair{Src: sc, Dst: dc, Overlap: ov})
			}
		}
	}
	samePairs := func(label string, got, want []intersect.Pair) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s -> %s: %s has %d pairs, all-pairs intersection %d", src.Name(), dst.Name(), label, len(got), len(want))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Src != w.Src || g.Dst != w.Dst || g.Overlap.String() != w.Overlap.String() {
				t.Fatalf("%s -> %s: %s[%d] = %v->%v %v, want %v->%v %v", src.Name(), dst.Name(), label, k,
					g.Src, g.Dst, g.Overlap, w.Src, w.Dst, w.Overlap)
			}
		}
	}
	samePairs("Pairs", intersect.Pairs(src, dst), want)

	proposed := map[intersect.Candidate]bool{}
	for _, c := range intersect.Shallow(src, dst) {
		if proposed[c] {
			t.Fatalf("%s -> %s: Shallow proposes %v->%v twice", src.Name(), dst.Name(), c.Src, c.Dst)
		}
		proposed[c] = true
	}
	confirmed := intersect.Complete(src, dst, intersect.ShallowBrute(src, dst))
	samePairs("Complete(ShallowBrute)", confirmed, want)
	for _, p := range confirmed {
		if !proposed[intersect.Candidate{Src: p.Src, Dst: p.Dst}] {
			t.Fatalf("%s -> %s: Shallow misses the overlapping pair %v->%v", src.Name(), dst.Name(), p.Src, p.Dst)
		}
	}
}

// TestPairsMatchAllPairsIntersect runs the check on random disjoint block
// partitions, aliased images of them and each partition against itself, in
// 1-D (sparse parents included) and 2-D.
func TestPairsMatchAllPairsIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		tr := region.NewTree()
		var blocks, image *region.Partition
		if iter%2 == 0 {
			// A parent of strided runs, so subregions have several spans and
			// bounding intervals promise overlaps the spans do not have.
			var runs []geometry.Rect
			for x := int64(0); x < 400; x += 2 + rng.Int63n(6) {
				runs = append(runs, geometry.R1(x, x+rng.Int63n(2)))
			}
			root := tr.NewRegion("R", geometry.FromRects(1, runs))
			blocks = root.Block("blocks", 1+rng.Int63n(12))
			reach := 1 + rng.Int63n(30)
			image = region.ImageRects(root, blocks, "image", func(is geometry.IndexSpace) []geometry.Rect {
				b := is.Bounds()
				if b.Empty() {
					return nil
				}
				return []geometry.Rect{geometry.R1(b.Lo.X()-reach, b.Lo.X()-1), geometry.R1(b.Hi.X()+1, b.Hi.X()+reach)}
			})
		} else {
			root := tr.NewRegion("G", geometry.NewIndexSpace(geometry.R2(0, 0, 47, 47)))
			blocks = root.Block2D("blocks", 1+rng.Int63n(6), 1+rng.Int63n(6))
			reach := 1 + rng.Int63n(9)
			image = region.ImageRects(root, blocks, "image", func(is geometry.IndexSpace) []geometry.Rect {
				b := is.Bounds()
				return []geometry.Rect{
					geometry.R2(b.Lo.X()-reach, b.Lo.Y(), b.Lo.X()-1, b.Hi.Y()),
					geometry.R2(b.Hi.X()+1, b.Lo.Y(), b.Hi.X()+reach, b.Hi.Y()),
					geometry.R2(b.Lo.X(), b.Lo.Y()-reach, b.Hi.X(), b.Lo.Y()-1),
					geometry.R2(b.Lo.X(), b.Hi.Y()+1, b.Hi.X(), b.Hi.Y()+reach),
				}
			})
		}
		for _, pair := range [][2]*region.Partition{{blocks, image}, {image, blocks}, {blocks, blocks}, {image, image}} {
			checkAgainstBruteForce(t, pair[0], pair[1])
		}
	}
}

// TestPairsMatchAllPairsIntersectApps runs the check on every pair of
// partitions under a common root in the four evaluation applications.
func TestPairsMatchAllPairsIntersectApps(t *testing.T) {
	for _, app := range harness.Apps() {
		prog, _ := app.BuildProgram(16)
		checked := 0
		for _, src := range prog.Tree.Partitions() {
			for _, dst := range prog.Tree.Partitions() {
				if src.Parent().Root() == dst.Parent().Root() {
					checkAgainstBruteForce(t, src, dst)
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no partition pair checked", app.Name)
		}
		t.Logf("%s: %d partition pairs", app.Name, checked)
	}
}

// BenchmarkShallow is the shallow phase between a block partition and its
// halo image, three candidates per destination colour: the cost that must
// grow with the candidates, not with sources times destinations.
func BenchmarkShallow(b *testing.B) {
	for _, n := range []int64{256, 1024} {
		tr := region.NewTree()
		root := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 64*n-1)))
		blocks := root.Block("blocks", n)
		halo := region.ImageRects(root, blocks, "halo", func(is geometry.IndexSpace) []geometry.Rect {
			b := is.Bounds()
			return []geometry.Rect{geometry.R1(b.Lo.X()-3, b.Hi.X()+3)}
		})
		b.Run(strconv.FormatInt(n, 10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := len(intersect.Shallow(blocks, halo)); got != int(3*n-2) {
					b.Fatalf("%d candidates, want %d", got, 3*n-2)
				}
			}
		})
	}
}
