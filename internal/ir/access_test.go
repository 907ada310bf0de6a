package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/region"
)

// panicText runs fn and returns what it panicked with ("" if it did not).
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// accessFixture is a task context over one root store: argument 0 reads x,
// 1 reads and writes x, 2 sum-reduces x; y is declared by none of them.
func accessFixture() (tc *TaskCtx, x, y region.FieldID) {
	fs := region.NewFieldSpace("x", "y")
	x, y = fs.Field("x"), fs.Field("y")
	r := region.NewTree().NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 7)))
	st := region.NewStore(r.IndexSpace(), fs)
	fields := []region.FieldID{x}
	tc = &TaskCtx{Args: []PhysArg{
		NewPhysArg(r, st, Param{Priv: PrivRead, Fields: fields}),
		NewPhysArg(r, st, Param{Priv: PrivReadWrite, Fields: fields}),
		NewPhysArg(r, st, Param{Priv: PrivReduce, Op: region.ReduceSum, Fields: fields}),
	}}
	return tc, x, y
}

// Every undeclared access panics when the accessor is created, with the
// message the per-point entry gives for the same access.
func TestAccessorPrivilegeTable(t *testing.T) {
	tc, x, y := accessFixture()
	p := geometry.Pt1(0)
	const (
		noRead   = "ir: read of field %d without read privilege"
		noWrite  = "ir: write of field %d without write privilege"
		noReduce = "ir: reduction %v of field %d without matching reduce privilege"
	)
	cases := []struct {
		name     string
		accessor func()
		perPoint func()
		want     string
	}{
		{"read under reduces",
			func() { tc.Reader(x, 2, 1) }, func() { tc.Args[2].Get(x, p) }, fmt.Sprintf(noRead, x)},
		{"read of an undeclared field",
			func() { tc.Reader(y, 0, 1) }, func() { tc.Args[0].Get(y, p) }, fmt.Sprintf(noRead, y)},
		{"write under reads",
			func() { tc.Writer(x, 0, 1) }, func() { tc.Args[0].Set(x, p, 1) }, fmt.Sprintf(noWrite, x)},
		{"write under reduces",
			func() { tc.Writer(x, 2, 1) }, func() { tc.Args[2].Set(x, p, 1) }, fmt.Sprintf(noWrite, x)},
		{"write of an undeclared field",
			func() { tc.Writer(y, 1, 1) }, func() { tc.Args[1].Set(y, p, 1) }, fmt.Sprintf(noWrite, y)},
		{"reduce with the wrong operator",
			func() { tc.Reducer(x, region.ReduceMin, 2, 1) },
			func() { tc.Args[2].Reduce(x, region.ReduceMin, p, 1) }, fmt.Sprintf(noReduce, region.ReduceMin, x)},
		{"reduce under reads writes",
			func() { tc.Reducer(x, region.ReduceSum, 1, 1) },
			func() { tc.Args[1].Reduce(x, region.ReduceSum, p, 1) }, fmt.Sprintf(noReduce, region.ReduceSum, x)},
		{"reduce of an undeclared field",
			func() { tc.Reducer(y, region.ReduceSum, 2, 1) },
			func() { tc.Args[2].Reduce(y, region.ReduceSum, p, 1) }, fmt.Sprintf(noReduce, region.ReduceSum, y)},
		{"one argument of a run lacks the privilege",
			func() { tc.Reader(x, 0, 3) }, func() { tc.Args[2].Get(x, p) }, fmt.Sprintf(noRead, x)},
	}
	for _, c := range cases {
		if got := panicText(c.accessor); got != c.want {
			t.Errorf("%s: accessor panicked with %q, want %q", c.name, got, c.want)
		}
		if got := panicText(c.perPoint); got != c.want {
			t.Errorf("%s: per-point entry panicked with %q, want %q", c.name, got, c.want)
		}
	}

	// What the declarations allow works through both entries.
	rd, rw, red := tc.Reader(x, 0, 2), tc.Writer(x, 1, 1), tc.Reducer(x, region.ReduceSum, 2, 1)
	rw.Set(p, 3)
	red.Fold(p, 4)
	if got := rd.Get(p); got != 7 {
		t.Errorf("Set 3 then Fold 4 reads back %v", got)
	}
	if got := tc.Args[1].Get(x, p); got != 7 {
		t.Errorf("per-point Get = %v, want 7", got)
	}
}

// randomArg returns an argument over a random multi-span subregion of a
// multi-span root, backed by the root's store or by a store of its own.
func randomArg(rng *rand.Rand, dim int8, fs *region.FieldSpace, p Param, ownStore bool) PhysArg {
	rects := func(n int) []geometry.Rect {
		var out []geometry.Rect
		for ; n > 0; n-- {
			r := geometry.EmptyRect(dim)
			for i := 0; i < int(dim); i++ {
				r.Lo.C[i] = rng.Int63n(8)
				r.Hi.C[i] = r.Lo.C[i] + rng.Int63n(5)
			}
			out = append(out, r)
		}
		return out
	}
	root := region.NewTree().NewRegion("R", geometry.FromRects(dim, rects(1+rng.Intn(4))))
	sub := root.IndexSpace().Intersect(geometry.FromRects(dim, rects(1+rng.Intn(3))))
	part := root.BySubsets("P", geometry.NewIndexSpace(geometry.R1(0, 0)),
		map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): sub})
	r := part.Sub1(0)
	if ownStore {
		return NewPhysArg(r, region.NewStore(r.IndexSpace(), fs), p)
	}
	return NewPhysArg(r, region.NewStore(root.IndexSpace(), fs), p)
}

// Rows yields exactly the point sequence of Each, and the rows an accessor
// hands out are the store's memory.
func TestRowsMatchEachAndAliasTheStore(t *testing.T) {
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		arg := randomArg(rng, int8(1+iter%3), fs, Param{Priv: PrivReadWrite, Fields: []region.FieldID{x}}, iter%2 == 0)
		tc := &TaskCtx{Args: []PhysArg{arg}}
		var want []geometry.Point
		arg.Each(func(p geometry.Point) bool { want = append(want, p); return true })
		w := tc.Writer(x, 0, 1)
		var got []geometry.Point
		tc.Rows(0, func(r Row) {
			row := w.Row(r)
			if len(row) != r.Len {
				t.Fatalf("row has %d elements, Len %d", len(row), r.Len)
			}
			for i := range row {
				p := r.Point(i)
				got = append(got, p)
				if &row[i] != &arg.Store.Raw(x)[arg.Store.Layout().Slot(p)] {
					t.Fatalf("row element for %v is not the store's", p)
				}
			}
		})
		if len(got) != len(want) {
			t.Fatalf("Rows visited %d points, Each %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Rows point %d = %v, Each visits %v", i, got[i], want[i])
			}
		}
	}
}

func TestRowOfAnotherArgumentPanics(t *testing.T) {
	tc, x, _ := accessFixture()
	rd := tc.Reader(x, 0, 1)
	want := "ir: row of argument 1 used with an accessor over arguments 0..0"
	tc.Rows(1, func(r Row) {
		if got := panicText(func() { rd.Row(r) }); got != want {
			t.Errorf("panicked with %q, want %q", got, want)
		}
	})
}

// A point the store holds but the argument's region does not is outside the
// argument, whichever store backs it: same panic, same text.
func TestAccessOutsideTheArgumentRegionPanics(t *testing.T) {
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	root := region.NewTree().NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	block := root.Block("B", 4).Sub1(1) // [4, 7]
	param := Param{Priv: PrivReadWrite, Fields: []region.FieldID{x}}
	overRoot := NewPhysArg(block, region.NewStore(root.IndexSpace(), fs), param)
	overOwn := NewPhysArg(block, region.NewStore(block.IndexSpace(), fs), param)
	past := geometry.Pt1(8)
	want := panicText(func() { overOwn.Get(x, past) })
	if want == "" {
		t.Fatal("reading past a per-instance store did not panic")
	}
	for name, arg := range map[string]PhysArg{"root store": overRoot, "own store": overOwn} {
		tc := &TaskCtx{Args: []PhysArg{arg}}
		rd := tc.Writer(x, 0, 1)
		for what, fn := range map[string]func(){
			"PhysArg.Get": func() { arg.Get(x, past) },
			"PhysArg.Set": func() { arg.Set(x, past, 1) },
			"Reader.Get":  func() { rd.Get(past) },
			"Writer.Set":  func() { rd.Set(past, 1) },
		} {
			if got := panicText(fn); got != want {
				t.Errorf("%s over the %s panicked with %q, want %q", what, name, got, want)
			}
		}
		if got := rd.Get(geometry.Pt1(7)); got != 0 {
			t.Errorf("last point of the block over the %s reads %v", name, got)
		}
	}
}

// A multi-argument accessor resolves a point to the first argument, in
// argument order, whose region holds it.
func TestAccessorFirstMatchInArgumentOrder(t *testing.T) {
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	tree := region.NewTree()
	root := tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	sub := func(lo, hi int64) *region.Region {
		return root.BySubsets(fmt.Sprintf("P%d", lo), geometry.NewIndexSpace(geometry.R1(0, 0)),
			map[geometry.Point]geometry.IndexSpace{geometry.Pt1(0): geometry.NewIndexSpace(geometry.R1(lo, hi))}).Sub1(0)
	}
	param := Param{Priv: PrivReadWrite, Fields: []region.FieldID{x}}
	a, b := sub(0, 5), sub(4, 9) // overlap on [4, 5]
	tc := &TaskCtx{Args: []PhysArg{
		NewPhysArg(a, region.NewStore(a.IndexSpace(), fs), param),
		NewPhysArg(b, region.NewStore(b.IndexSpace(), fs), param),
	}, Footprints: &FootprintCache{}}
	w := tc.Writer(x, 0, 2)
	for i := int64(0); i < 10; i++ {
		w.Set(geometry.Pt1(i), float64(i+1))
	}
	for i := int64(0); i < 10; i++ {
		inA, inB := tc.Args[0].Store.Raw(x), tc.Args[1].Store.Raw(x)
		switch {
		case i <= 5 && inA[i] != float64(i+1):
			t.Errorf("point %d did not land in the first argument", i)
		case i >= 4 && i <= 5 && inB[i-4] != 0:
			t.Errorf("point %d of the overlap also landed in the second argument", i)
		case i > 5 && inB[i-4] != float64(i+1):
			t.Errorf("point %d did not land in the second argument", i)
		}
	}
	if len(tc.Footprints.list) != 1 {
		t.Fatalf("cache holds %d footprints, want 1", len(tc.Footprints.list))
	}
	if again := tc.Reader(x, 0, 2); again.at != tc.Footprints.list[0].fp.Cursor() {
		t.Error("second accessor over the same arguments did not reuse the cached footprint")
	}
}

// Read gathers exactly what a Get per point returns, across the spans of one
// argument and across arguments, and stops where Get would: at the first
// point outside every argument, with Get's panic.
func TestReadMatchesGetPerPoint(t *testing.T) {
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	param := Param{Priv: PrivReadWrite, Fields: []region.FieldID{x}}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		args := []PhysArg{
			randomArg(rng, int8(1+iter%3), fs, param, iter%2 == 0),
			randomArg(rng, int8(1+iter%3), fs, param, iter%4 < 2),
		}
		tc := &TaskCtx{Args: args}
		w := tc.Writer(x, 0, 2)
		for ai := range args {
			args[ai].Each(func(p geometry.Point) bool { w.Set(p, rng.Float64()); return true })
		}
		rd := tc.Reader(x, 0, 2)
		// Every stretch of every row of the two regions' union: the rows of the
		// union straddle spans and arguments wherever the regions do.
		union := args[0].Region.IndexSpace().Union(args[1].Region.IndexSpace())
		union.EachRow(func(first geometry.Point, n int64) bool {
			for from := int64(0); from < n; from++ {
				p := first
				p.C[p.Dim-1] += from
				got := make([]float64, n-from)
				rd.Read(p, got)
				for i := range got {
					q := p
					q.C[q.Dim-1] += int64(i)
					if want := rd.Get(q); got[i] != want {
						t.Fatalf("iter %d: Read(%v)[%d] = %v, Get(%v) = %v", iter, p, i, got[i], q, want)
					}
				}
			}
			past := first
			past.C[past.Dim-1] += n
			if union.Contains(past) {
				return true
			}
			want := panicText(func() { rd.Get(past) })
			if got := panicText(func() { rd.Read(first, make([]float64, n+1)) }); got != want || want == "" {
				t.Fatalf("iter %d: Read past the row at %v panicked with %q, Get with %q", iter, first, got, want)
			}
			return true
		})
	}
}

// A kernel invocation allocates its accessors and nothing per element: the
// count is the same over 64 points and over 64k.
func TestKernelAllocationsDoNotGrowWithVolume(t *testing.T) {
	fs := region.NewFieldSpace("in", "out")
	in, out := fs.Field("in"), fs.Field("out")
	task := &TaskDecl{
		Name: "blur",
		Params: []Param{
			{Name: "out", Priv: PrivReadWrite, Fields: []region.FieldID{out}},
			{Name: "own", Priv: PrivRead, Fields: []region.FieldID{in}},
			{Name: "halo", Priv: PrivRead, Fields: []region.FieldID{in}},
		},
		Kernel: func(tc *TaskCtx) {
			dst, src := tc.Writer(out, 0, 1), tc.Reader(in, 1, 2)
			tc.Rows(0, func(r Row) {
				row := dst.Row(r)
				for i := range row {
					x := r.First.X() + int64(i)
					row[i] = 0.5 * (src.Get(geometry.Pt1(x-1)) + src.Get(geometry.Pt1(x+1)))
				}
			})
		},
	}
	allocs := func(n int64) float64 {
		p := NewProgram("blur")
		r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 4*n-1)))
		p.FieldSpaces[r] = fs
		blocks := r.Block("B", 4)
		halo := region.Image(r, blocks, "H", func(pt geometry.Point) []geometry.Point {
			return []geometry.Point{geometry.Pt1((pt.X() + 4*n - 1) % (4 * n)), geometry.Pt1((pt.X() + 1) % (4 * n))}
		})
		l := &Launch{Task: task, Domain: Colors1D(4), Args: []RegionArg{{Part: blocks}, {Part: blocks}, {Part: halo}}}
		args := &RootArgs{Stores: map[*region.Region]*region.Store{r: region.NewStore(r.IndexSpace(), fs)}}
		return testing.AllocsPerRun(10, func() {
			ctx, _ := args.Ctx(l, 1, nil)
			task.Kernel(ctx)
		})
	}
	small, large := allocs(64), allocs(64<<10)
	if small != large {
		t.Errorf("kernel over 64 points allocates %v times, over 64k points %v times", small, large)
	}
	if small > 6 {
		t.Errorf("kernel invocation allocates %v times; accessors should cost a handful", small)
	}
}
