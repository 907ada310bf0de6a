// Package progtest builds small ir programs with known sequential semantics
// for use by the runtime, compiler, and executor test suites. Each builder
// returns the program plus enough handles to inspect results.
package progtest

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// Figure2 is the paper's running example (Figure 2): regions A and B,
// disjoint block partitions PA/PB, aliased image partition QB through
// h(j) = j+Shift mod N, and the loop
//
//	for t in 0..Trip { forall i: TF(PB[i], PA[i]); forall j: TG(PA[j], QB[j]) }
//
// with F(x) = x+1 and G(y) = 2y, A initialized to the element index.
type Figure2 struct {
	Prog   *ir.Program
	A, B   *region.Region
	PA, PB *region.Partition
	QB     *region.Partition
	Val    region.FieldID
	Loop   *ir.Loop
	N      int64
	Shift  int64
}

// NewFigure2 builds the example with n elements, nt partition colors, and
// the given trip count.
func NewFigure2(n, nt int64, trip int) *Figure2 {
	f := &Figure2{N: n, Shift: 3}
	p := ir.NewProgram("figure2")
	fs := region.NewFieldSpace("val")
	f.Val = fs.Field("val")

	f.A = p.Tree.NewRegion("A", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	f.B = p.Tree.NewRegion("B", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[f.A] = fs
	p.FieldSpaces[f.B] = fs

	f.PA = f.A.Block("PA", nt)
	f.PB = f.B.Block("PB", nt)
	shift := f.Shift
	f.QB = region.Image(f.B, f.PB, "QB", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + shift) % n)}
	})

	val := f.Val
	tf := &ir.TaskDecl{
		Name: "TF",
		Params: []ir.Param{
			{Name: "B", Priv: ir.PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "A", Priv: ir.PrivRead, Fields: []region.FieldID{val}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			bArg, aArg := &tc.Args[0], &tc.Args[1]
			bArg.Each(func(pt geometry.Point) bool {
				bArg.Set(val, pt, aArg.Get(val, pt)+1)
				return true
			})
		},
		CostPerElem: 100,
	}
	tg := &ir.TaskDecl{
		Name: "TG",
		Params: []ir.Param{
			{Name: "A", Priv: ir.PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "B", Priv: ir.PrivRead, Fields: []region.FieldID{val}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			aArg, bArg := &tc.Args[0], &tc.Args[1]
			aArg.Each(func(pt geometry.Point) bool {
				h := geometry.Pt1((pt.X() + shift) % n)
				aArg.Set(val, pt, 2*bArg.Get(val, h))
				return true
			})
		},
		CostPerElem: 100,
	}

	f.Loop = &ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
		&ir.Launch{Task: tf, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: f.PB}, {Part: f.PA}}, Label: "loopF"},
		&ir.Launch{Task: tg, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: f.PA}, {Part: f.QB}}, Label: "loopG"},
	}}
	p.Add(
		&ir.FillFunc{Target: f.A, Field: val, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Fill{Target: f.B, Field: val, Value: 0},
		f.Loop,
	)
	f.Prog = p
	return f
}

// ScalarSum builds a program whose single launch sum-reduces element values
// 0..n-1 into scalar "total", then doubles it with a scalar statement.
type ScalarSum struct {
	Prog *ir.Program
	R    *region.Region
	X    region.FieldID
}

// NewScalarSum builds the fixture.
func NewScalarSum(n, nt int64) *ScalarSum {
	f := &ScalarSum{}
	p := ir.NewProgram("scalarsum")
	fs := region.NewFieldSpace("x")
	f.X = fs.Field("x")
	f.R = p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[f.R] = fs
	pr := f.R.Block("PR", nt)
	x := f.X
	sum := &ir.TaskDecl{
		Name:   "sum",
		Params: []ir.Param{{Name: "R", Priv: ir.PrivRead, Fields: []region.FieldID{x}}},
		Kernel: func(tc *ir.TaskCtx) {
			tc.Args[0].Each(func(pt geometry.Point) bool {
				tc.Return += tc.Args[0].Get(x, pt)
				return true
			})
		},
		CostPerElem: 50,
	}
	p.Add(
		&ir.FillFunc{Target: f.R, Field: x, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Loop{Var: "t", Trip: 2, Body: []ir.Stmt{
			&ir.Launch{Task: sum, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pr}},
				Reduce: &ir.ScalarReduce{Into: "total", Op: region.ReduceSum}},
			&ir.SetScalar{Name: "doubled", Expr: func(e ir.Env) float64 { return 2 * e.Get("total") }},
		}},
	)
	f.Prog = p
	return f
}

// RegionReduce builds a program whose tasks sum-reduce +1 contributions
// through an overlapping image partition (each task covers its block plus
// the next element, wrapping), iterated in a loop with an intervening
// reader so reduction folds and copies interleave.
type RegionReduce struct {
	Prog *ir.Program
	R    *region.Region
	Acc  region.FieldID
	Loop *ir.Loop
}

// NewRegionReduce builds the fixture with n elements (must be even), nt
// colors, and trip iterations.
func NewRegionReduce(n, nt int64, trip int) *RegionReduce {
	f := &RegionReduce{}
	p := ir.NewProgram("regionreduce")
	fs := region.NewFieldSpace("acc", "out")
	f.Acc = fs.Field("acc")
	out := fs.Field("out")
	f.R = p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[f.R] = fs
	pr := f.R.Block("PR", nt)
	img := region.Image(f.R, pr, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{pt, geometry.Pt1((pt.X() + 1) % n)}
	})
	acc := f.Acc
	contrib := &ir.TaskDecl{
		Name:   "contrib",
		Params: []ir.Param{{Name: "IMG", Priv: ir.PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{acc}}},
		Kernel: func(tc *ir.TaskCtx) {
			tc.Args[0].Each(func(pt geometry.Point) bool {
				tc.Args[0].Reduce(acc, region.ReduceSum, pt, 1+float64(pt.X())/16)
				return true
			})
		},
		CostPerElem: 60,
	}
	reader := &ir.TaskDecl{
		Name: "reader",
		Params: []ir.Param{
			{Name: "OUT", Priv: ir.PrivReadWrite, Fields: []region.FieldID{out}},
			{Name: "ACC", Priv: ir.PrivRead, Fields: []region.FieldID{acc}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			o, a := &tc.Args[0], &tc.Args[1]
			o.Each(func(pt geometry.Point) bool {
				o.Set(out, pt, o.Get(out, pt)+3*a.Get(acc, pt))
				return true
			})
		},
		CostPerElem: 60,
	}
	f.Loop = &ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
		&ir.Launch{Task: contrib, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: img}}, Label: "contrib"},
		&ir.Launch{Task: reader, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pr}, {Part: pr}}, Label: "reader"},
	}}
	p.Add(
		&ir.Fill{Target: f.R, Field: acc, Value: 0},
		&ir.Fill{Target: f.R, Field: out, Value: 0},
		f.Loop,
	)
	f.Prog = p
	return f
}

// PastBlock builds a program whose task copies its block of R.src into
// R.dst, except that the task of color 0 also reads src one point past its
// block: a point the root store holds and the task's subregion does not.
// Every executor must refuse that read, and refuse it the same way.
type PastBlock struct {
	Prog *ir.Program
	// Past is the point color 0 reads, and Block the subregion it declared.
	Past  geometry.Point
	Block *region.Region
}

// NewPastBlock builds the fixture with n elements, nt colors (n divisible
// by nt, nt ≥ 2) and trip iterations.
func NewPastBlock(n, nt int64, trip int) *PastBlock {
	p := ir.NewProgram("pastblock")
	fs := region.NewFieldSpace("src", "dst")
	src, dst := fs.Field("src"), fs.Field("dst")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", nt)
	f := &PastBlock{Prog: p, Past: geometry.Pt1(n / nt), Block: pr.Sub1(0)}
	past := f.Past
	peek := &ir.TaskDecl{
		Name: "peek",
		Params: []ir.Param{
			{Name: "out", Priv: ir.PrivReadWrite, Fields: []region.FieldID{dst}},
			{Name: "in", Priv: ir.PrivRead, Fields: []region.FieldID{src}},
		},
		Kernel: func(tc *ir.TaskCtx) {
			out, in := tc.Writer(dst, 0, 1), tc.Reader(src, 1, 1)
			tc.Rows(0, func(row ir.Row) {
				for i, dst := 0, out.Row(row); i < row.Len; i++ {
					dst[i] = in.Get(row.Point(i))
				}
			})
			if tc.Color == geometry.Pt1(0) {
				tc.Return = in.Get(past)
			}
		},
		CostPerElem: 10,
	}
	p.Add(
		&ir.FillFunc{Target: r, Field: src, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Fill{Target: r, Field: dst, Value: 0},
		&ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
			&ir.Launch{Task: peek, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pr}, {Part: pr}}, Label: "peek"},
		}},
	)
	return f
}
