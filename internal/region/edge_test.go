package region

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestPartitionSubUnknownColorPanics(t *testing.T) {
	tr := NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	p := r.Block("P", 2)
	expectPanic(t, "unknown color", func() { p.Sub1(7) })
}

func TestBlock2DRequiresDense2D(t *testing.T) {
	tr := NewTree()
	r1 := tr.NewRegion("R1", geometry.NewIndexSpace(geometry.R1(0, 9)))
	expectPanic(t, "1-D region", func() { r1.Block2D("P", 2, 2) })
	sparse := tr.NewRegion("S", geometry.FromRects(2, []geometry.Rect{
		geometry.R2(0, 0, 1, 1), geometry.R2(5, 5, 6, 6),
	}))
	expectPanic(t, "sparse region", func() { sparse.Block2D("P", 2, 2) })
}

func TestSetOpsRequireSameParent(t *testing.T) {
	tr := NewTree()
	a := tr.NewRegion("A", geometry.NewIndexSpace(geometry.R1(0, 9)))
	b := tr.NewRegion("B", geometry.NewIndexSpace(geometry.R1(0, 9)))
	pa := a.Block("PA", 2)
	pb := b.Block("PB", 2)
	expectPanic(t, "different parents", func() { PUnion("u", pa, pb) })
	pa2 := a.Block("PA2", 3)
	expectPanic(t, "different color spaces", func() { PIntersection("i", pa, pa2) })
}

func TestBySubsetsRejectsEscapingSubset(t *testing.T) {
	tr := NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	expectPanic(t, "subset outside parent", func() {
		r.BySubsets("bad", geometry.NewIndexSpace(geometry.R1(0, 0)),
			map[geometry.Point]geometry.IndexSpace{
				geometry.Pt1(0): geometry.NewIndexSpace(geometry.R1(5, 15)),
			})
	})
}

// TestByColorRejectsColorOutsideSpace: of the eight colors outside the
// space the panic names the lowest, every time.
func TestByColorRejectsColorOutsideSpace(t *testing.T) {
	tr := NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	for i := 0; i < 20; i++ {
		func() {
			defer func() {
				const want = "region: ByColor color <2> outside color space"
				if got := recover(); got != want {
					t.Fatalf("panicked with %v, want %q", got, want)
				}
			}()
			r.ByColor("bad", geometry.NewIndexSpace(geometry.R1(0, 1)), func(p geometry.Point) geometry.Point {
				return geometry.Pt1(p.X()) // colors up to 9, space only has 0..1
			})
		}()
	}
}

func TestImageClipsToDestination(t *testing.T) {
	tr := NewTree()
	n := int64(10)
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p := r.Block("P", 2)
	// The image maps beyond the region; results must be clipped to R.
	img := Image(r, p, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1(pt.X() + 7)}
	})
	img.Each(func(_ geometry.Point, sub *Region) bool {
		if !r.IndexSpace().ContainsAll(sub.IndexSpace()) {
			t.Errorf("image subregion %v escapes the destination", sub.IndexSpace())
		}
		return true
	})
	// P[1] = 5..9 maps to 12..16, entirely outside: empty.
	if img.Sub1(1).Volume() != 0 {
		t.Errorf("out-of-range image should be empty, got %v", img.Sub1(1).IndexSpace())
	}
}

func TestStringsAndNavigation(t *testing.T) {
	tr := NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	p := r.Block("P", 2)
	sub := p.Sub1(0)
	if sub.Root() != r {
		t.Error("Root should walk to the tree root")
	}
	if sub.Parent() != p || sub.Color() != geometry.Pt1(0) {
		t.Error("parent/color navigation broken")
	}
	if !strings.Contains(p.String(), "disjoint") {
		t.Errorf("partition string: %s", p.String())
	}
	if !strings.Contains(sub.String(), "P[<0>]") {
		t.Errorf("subregion string: %s", sub.String())
	}
	if len(tr.Regions()) != 3 || len(tr.Partitions()) != 1 {
		t.Errorf("tree sizes: %d regions, %d partitions", len(tr.Regions()), len(tr.Partitions()))
	}
}

func TestReductionOpStrings(t *testing.T) {
	cases := map[ReductionOp]string{
		ReduceNone: "none", ReduceSum: "+", ReduceMin: "min", ReduceMax: "max",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	expectPanic(t, "identity of none", func() { ReduceNone.Identity() })
	expectPanic(t, "fold of none", func() { ReduceNone.Fold(0, 0) })
}

// Property: Fold is associative-compatible with Identity for every operator.
func TestFoldIdentityProperty(t *testing.T) {
	for _, op := range []ReductionOp{ReduceSum, ReduceMin, ReduceMax} {
		f := func(v float64) bool {
			return op.Fold(op.Identity(), v) == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

// Property: block partitions of random sizes are always balanced, disjoint
// and complete.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(rawN uint16, rawK uint8) bool {
		n := int64(rawN%500) + 1
		k := int64(rawK%16) + 1
		if k > n {
			k = n
		}
		tr := NewTree()
		r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
		p := r.Block("P", k)
		if !p.Disjoint() || !p.Complete() {
			return false
		}
		var total, minV, maxV int64 = 0, 1 << 62, -1
		p.Each(func(_ geometry.Point, sub *Region) bool {
			v := sub.Volume()
			total += v
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			return true
		})
		return total == n && maxV-minV <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
