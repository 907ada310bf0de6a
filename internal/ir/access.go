package ir

import (
	"fmt"
	"sync"

	"repro/internal/geometry"
	"repro/internal/region"
)

// Task-scoped access. A kernel takes, once at entry, one accessor per field
// it touches, over one argument or over a run of consecutive arguments that
// together are its view of one collection (private, shared, ghost):
//
//	out := tc.Writer(xout, 0, 1)
//	in := tc.Reader(xin, 1, 3)
//	tc.Rows(0, func(r ir.Row) {
//		row := out.Row(r)
//		for i := range row {
//			row[i] += in.Get(r.Point(i).Add(step))
//		}
//	})
//
// Checked once, when the accessor is created: every argument it spans
// declares the field, with a privilege that allows the access (and, for a
// Reducer, the same operator) — the panics and messages of PhysArg.Get, Set
// and Reduce. Checked on every Get, Set and Fold: the point lies in the
// region of one of the spanned arguments; the first such argument, in
// argument order, is the one accessed. A Reader's Read checks the same once
// per stored stretch rather than once per point. Not checked: what a kernel
// does with a row. A row aliases the store, and a Reader's rows are for reading.

// view is what the three accessors share: one field over the footprint of
// arguments first..first+len(data)-1.
type view struct {
	at    region.Cursor
	data  [][]float64 // the field's backing slice in each argument's store
	first int
}

// elem resolves p to its element. It is kept out of line so that Get, Set
// and Fold inline into the kernel and hand it the kernel's own point.
//
//go:noinline
func (v *view) elem(p *geometry.Point) *float64 {
	part, slot := v.at.Locate(p)
	return &v.data[part][slot]
}

// Row returns the field's values along r, a row of one of the arguments the
// accessor spans, aliasing the store.
func (v *view) Row(r Row) []float64 {
	part := r.arg - v.first
	if part < 0 || part >= len(v.data) {
		panic(fmt.Sprintf("ir: row of argument %d used with an accessor over arguments %d..%d", r.arg, v.first, v.first+len(v.data)-1))
	}
	return v.data[part][r.slot : r.slot+int64(r.Len)]
}

// Reader reads one field.
type Reader struct{ view }

// Get returns the field at p.
func (r *Reader) Get(p geometry.Point) float64 { return *r.elem(&p) }

// Read copies into dst the field at the len(dst) points that start at p and
// advance along the last dimension: dst[i] is what Get returns for the i-th
// of them. A stretch that straddles several arguments, or several spans of
// one, is gathered piecewise; what a loop pays per point is a copy.
func (r *Reader) Read(p geometry.Point, dst []float64) {
	last := p.Dim - 1
	for len(dst) > 0 {
		part, slot, n := r.at.Run(&p, int64(len(dst)))
		copy(dst[:n], r.data[part][slot:slot+n])
		dst = dst[n:]
		p.C[last] += n
	}
}

// Writer reads and writes one field.
type Writer struct{ Reader }

// Set assigns the field at p.
func (w *Writer) Set(p geometry.Point, v float64) { *w.elem(&p) = v }

// Reducer folds contributions into one field with the declared operator.
type Reducer struct {
	view
	op region.ReductionOp
}

// Fold folds v into the field at p.
func (r *Reducer) Fold(p geometry.Point, v float64) { r.fold(&p, v) }

// fold is Fold out of line, for the reason elem is.
func (r *Reducer) fold(p *geometry.Point, v float64) {
	part, slot := r.at.Locate(p)
	x := &r.data[part][slot]
	*x = r.op.Fold(*x, v)
}

// view builds the accessor core over arguments first..first+n-1 after
// running check on each of them; Raw asserts, once per argument, that its
// store holds the field, which the privilege check already implies.
func (tc *TaskCtx) view(f region.FieldID, first, n int, check func(*PhysArg)) view {
	v := view{at: tc.footprint(first, n).Cursor(), data: make([][]float64, n), first: first}
	for i := range v.data {
		a := &tc.Args[first+i]
		check(a)
		v.data[i] = a.Store.Raw(f)
	}
	return v
}

// Reader returns a read accessor for field f over arguments
// first..first+n-1, each of which must hold a read-bearing privilege on f.
func (tc *TaskCtx) Reader(f region.FieldID, first, n int) Reader {
	return Reader{tc.view(f, first, n, func(a *PhysArg) { a.mustRead(f) })}
}

// Writer returns a read-write accessor for field f over arguments
// first..first+n-1, each of which must hold read-write privilege on f.
func (tc *TaskCtx) Writer(f region.FieldID, first, n int) Writer {
	return Writer{Reader{tc.view(f, first, n, func(a *PhysArg) { a.mustWrite(f) })}}
}

// Reducer returns a reduction accessor for field f over arguments
// first..first+n-1, each of which must hold reduce privilege on f with
// operator op.
func (tc *TaskCtx) Reducer(f region.FieldID, op region.ReductionOp, first, n int) Reducer {
	return Reducer{tc.view(f, first, n, func(a *PhysArg) { a.mustReduce(f, op) }), op}
}

// Row is a run of points of one argument's region that differ only in the
// last coordinate and that the argument's store holds consecutively.
type Row struct {
	First geometry.Point
	Len   int
	arg   int
	slot  int64
}

// Point returns the row's i-th point.
func (r Row) Point(i int) geometry.Point {
	p := r.First
	p.C[p.Dim-1] += int64(i)
	return p
}

// Rows calls fn for every row of argument arg's region. Walking each row
// from First visits exactly the points, in exactly the order, of the
// argument's Each — the order every kernel's arithmetic is defined in.
func (tc *TaskCtx) Rows(arg int, fn func(Row)) {
	a := &tc.Args[arg]
	a.fp.Runs(a.Region.IndexSpace(), func(p geometry.Point, _ int, slot, n int64) bool {
		fn(Row{First: p, Len: int(n), arg: arg, slot: slot})
		return true
	})
}

// footprint returns the footprint of arguments first..first+n-1.
func (tc *TaskCtx) footprint(first, n int) *region.Footprint {
	if n == 1 {
		return tc.Args[first].fp
	}
	if tc.Footprints != nil {
		return tc.Footprints.get(tc.Args, first, n)
	}
	return newFootprint(tc.Args[first : first+n])
}

func newFootprint(args []PhysArg) *region.Footprint {
	parts := make([]region.Part, len(args))
	for i := range args {
		parts[i] = region.Part{Over: args[i].Region.IndexSpace(), Layout: args[i].Store.Layout()}
	}
	return region.NewFootprint(parts...)
}

// FootprintCache memoizes the multi-argument footprints of one task
// instance. It is safe for concurrent use: iterations of one instance may
// overlap.
type FootprintCache struct {
	mu   sync.Mutex
	list []cachedFootprint
}

type cachedFootprint struct {
	first, n int
	fp       *region.Footprint
}

func (c *FootprintCache) get(args []PhysArg, first, n int) *region.Footprint {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.list {
		if e.first == first && e.n == n {
			return e.fp
		}
	}
	fp := newFootprint(args[first : first+n])
	c.list = append(c.list, cachedFootprint{first, n, fp})
	return fp
}
