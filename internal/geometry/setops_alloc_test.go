package geometry

import (
	"runtime"
	"testing"
	"unsafe"
)

// strided1D returns n spans of the given width, stride apart, from off.
func strided1D(n int, stride, off, width int64) IndexSpace {
	rects := make([]Rect, n)
	for k := range rects {
		lo := int64(k)*stride + off
		rects[k] = R1(lo, lo+width-1)
	}
	return FromDisjointRects(1, rects)
}

// TestPredicatesAllocateNothing holds ContainsAll and Equal to ContainsAll's
// contract — an early-exit sweep, not a materialised difference — on sorted
// 1-D lists of 1000 spans, for both answers; Overlaps has always met it, and
// OverlapVolume counts an intersection without building it.
func TestPredicatesAllocateNothing(t *testing.T) {
	a := strided1D(1000, 10, 0, 4)      // [0,3] [10,13] ...
	same := strided1D(1000, 10, 0, 4)   // equal, in storage of its own
	inner := strided1D(1000, 10, 1, 2)  // [1,2] [11,12] ...: inside a
	apart := strided1D(1000, 10, 5, 4)  // [5,8] [15,18] ...: between a's spans
	across := strided1D(1000, 10, 2, 4) // [2,5] [12,15] ...: half in, half out
	lastOut := strided1D(1000, 10, 0, 4).Subtract(NewIndexSpace(R1(9993, 9993)))
	cases := []struct {
		name string
		fn   func() bool
		want bool
	}{
		{"ContainsAll/yes", func() bool { return a.ContainsAll(inner) }, true},
		{"ContainsAll/no-at-once", func() bool { return a.ContainsAll(across) }, false},
		{"ContainsAll/no-at-the-end", func() bool { return lastOut.ContainsAll(a) }, false},
		{"Equal/yes", func() bool { return a.Equal(same) }, true},
		{"Equal/no", func() bool { return a.Equal(inner) }, false},
		{"Equal/no-at-the-end", func() bool { return a.Equal(lastOut) }, false},
		{"Overlaps/yes", func() bool { return a.Overlaps(across) }, true},
		{"Overlaps/no", func() bool { return a.Overlaps(apart) }, false},
		{"OverlapVolume/some", func() bool { return a.OverlapVolume(across) == 2000 }, true},
		{"OverlapVolume/none", func() bool { return a.OverlapVolume(apart) == 0 }, true},
	}
	for _, c := range cases {
		if got := c.fn(); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(10, func() { c.fn() }); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}

// TestSetOpAllocs pins the sweeps to output sized before it is written: one
// allocation for Intersect, Subtract and UnionMany (none for an empty
// result), whatever the operand sizes, and that allocation to the flat span
// layout: at most what one slice of 16 bytes per 1-D result span (32 per
// 2-D span) costs the allocator, plus 64 bytes. A span stored as a Rect
// costs 64 bytes in any dimension.
func TestSetOpAllocs(t *testing.T) {
	if n := unsafe.Sizeof(IndexSpace{}); n != 32 {
		t.Errorf("an IndexSpace is %d bytes, want 32", n)
	}
	a := strided1D(1000, 10, 0, 4)
	across := strided1D(1000, 10, 2, 4)
	apart := strided1D(1000, 10, 5, 4)
	long := strided1D(5000, 10, 0, 4)
	one := NewIndexSpace(R1(20001, 20012))
	all := NewIndexSpace(R1(-5, 60000))
	var tiles []Rect // 10 x 10 tiles of 2 x 2 points, none touching
	for k := int64(0); k < 100; k++ {
		tiles = append(tiles, R2(k/10*3, k%10*3, k/10*3+1, k%10*3+1))
	}
	grid, gap := FromDisjointRects(2, tiles), NewIndexSpace(R2(2, 2, 2, 2))
	cases := []struct {
		name string
		fn   func() IndexSpace
		max  float64
		vol  int64
	}{
		{"Intersect/balanced", func() IndexSpace { return a.Intersect(across) }, 1, 2000},
		{"Intersect/one-in-long", func() IndexSpace { return one.Intersect(long) }, 1, 6},
		{"Intersect/long-in-one", func() IndexSpace { return long.Intersect(one) }, 1, 6},
		{"Intersect/empty", func() IndexSpace { return a.Intersect(apart) }, 0, 0},
		{"Subtract/balanced", func() IndexSpace { return a.Subtract(across) }, 1, 2000},
		{"Subtract/long-minus-one", func() IndexSpace { return long.Subtract(one) }, 1, 20000 - 6},
		{"Subtract/one-minus-long", func() IndexSpace { return one.Subtract(long) }, 1, 12 - 6},
		{"Subtract/untouched", func() IndexSpace { return a.Subtract(apart) }, 1, 4000},
		{"Subtract/empty", func() IndexSpace { return long.Subtract(all) }, 0, 0},
		{"UnionMany/two-runs", func() IndexSpace { return UnionMany(1, []IndexSpace{a, apart}) }, 1, 8000},
		{"UnionMany/aliased-runs", func() IndexSpace { return UnionMany(1, []IndexSpace{a, across, long, one}) }, 1, 20000 + 2000 + 12 - 6},
		{"Subtract/untouched-2D", func() IndexSpace { return grid.Subtract(gap) }, 1, 400},
	}
	for _, c := range cases {
		res := c.fn()
		if got := res.Volume(); got != c.vol {
			t.Errorf("%s: volume %d, want %d", c.name, got, c.vol)
		}
		if n := testing.AllocsPerRun(10, func() { c.fn() }); n > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, n, c.max)
		}
		if raceEnabled {
			continue // the race detector changes what is allocated
		}
		got := bytesPerCall(func() { benchSink = c.fn() })
		want := bytesPerCall(func() { boundsSink = make([]int64, res.NumSpans()*2*int(res.Dim())) }) + 64
		if got > want {
			t.Errorf("%s: %.0f bytes per call for %d spans, want at most %.0f", c.name, got, res.NumSpans(), want)
		}
	}
}

var boundsSink []int64

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// bytesPerCall returns what fn allocates per call, in bytes, by the
// TotalAlloc delta over repetitions.
func bytesPerCall(fn func()) float64 {
	const reps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / reps
}

var benchSink IndexSpace

func BenchmarkIntersect1D(b *testing.B) {
	long := strided1D(4096, 10, 0, 4)
	for _, c := range []struct {
		name string
		x, y IndexSpace
	}{
		{"balanced", long, strided1D(4096, 10, 2, 4)},
		{"lopsided", NewIndexSpace(R1(20001, 20012)), long},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = c.x.Intersect(c.y)
			}
		})
	}
}

func BenchmarkSubtract1D(b *testing.B) {
	x, y := strided1D(4096, 10, 0, 4), strided1D(4096, 10, 2, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = x.Subtract(y)
	}
}

func BenchmarkUnionMany(b *testing.B) {
	// 64 operands of 64 spans: end to end (a disjoint partition's subregions
	// in colour order), and interleaved so every operand spans the whole
	// range and meets its neighbours (an aliased ghost partition's).
	disjoint, aliased := make([]IndexSpace, 64), make([]IndexSpace, 64)
	for k := range disjoint {
		disjoint[k] = strided1D(64, 10, int64(k)*640, 4)
		aliased[k] = strided1D(64, 640, int64(k)*8, 12)
	}
	for _, c := range []struct {
		name   string
		spaces []IndexSpace
	}{{"disjoint-runs", disjoint}, {"aliased-runs", aliased}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = UnionMany(1, c.spaces)
			}
		})
	}
}
