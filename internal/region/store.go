package region

import (
	"fmt"

	"repro/internal/geometry"
)

// Layout maps the points of an index space to dense storage slots. Spans
// are sorted by lexicographic lower bound and laid out consecutively, each
// span row-major internally, so the slot order is deterministic.
type Layout struct {
	ispace geometry.IndexSpace
	fp     Footprint // the layout's own spans: one part, every point
	total  int64
}

// NewLayout builds a layout for the given index space.
func NewLayout(is geometry.IndexSpace) *Layout {
	l := &Layout{ispace: is}
	l.fp = Footprint{dim: is.Dim(), spans: make([]fspan, is.NumSpans()), parts: []geometry.IndexSpace{is}}
	for i := range l.fp.spans {
		l.fp.spans[i] = layoutSpan(is.Span(i))
	}
	l.fp.indexSpans()
	for i := range l.fp.spans {
		sp := &l.fp.spans[i]
		sp.base = l.total
		l.total += sp.rect().Volume()
	}
	return l
}

// Size returns the number of slots.
func (l *Layout) Size() int64 { return l.total }

// IndexSpace returns the index space the layout covers.
func (l *Layout) IndexSpace() geometry.IndexSpace { return l.ispace }

// Slot returns the storage slot for point p, panicking if p is outside the
// layout's index space. It is the per-point entry to the layout's
// footprint; loops resolve rows instead (Store.Rows, Footprint.Runs).
func (l *Layout) Slot(p geometry.Point) int64 {
	_, slot := l.fp.Locate(p)
	return slot
}

// Each calls fn with each (point, slot) pair in slot order.
func (l *Layout) Each(fn func(geometry.Point, int64) bool) {
	slot := int64(0)
	for i := range l.fp.spans {
		stop := false
		l.fp.spans[i].rect().Each(func(p geometry.Point) bool {
			stop = !fn(p, slot)
			slot++
			return !stop
		})
		if stop {
			return
		}
	}
}

// eachRun walks over row by row (IndexSpace.EachRow order) and calls fn for
// every stretch of n points that both layouts store consecutively, with its
// first slot in each. over must be contained in both layouts.
func eachRun(a, b *Layout, over geometry.IndexSpace, fn func(aslot, bslot, n int64) bool) {
	last := int(over.Dim()) - 1
	bc := b.fp.Cursor()
	a.fp.Runs(over, func(p geometry.Point, _ int, as, n int64) bool {
		for n > 0 {
			_, bs, bn := bc.Run(&p, n)
			if !fn(as, bs, bn) {
				return false
			}
			p.C[last] += bn
			as += bn
			n -= bn
		}
		return true
	})
}

// Store is a physical instance: field storage for one region's index space.
// In the distributed-memory execution every region and subregion has its
// own Store (paper §3: "the first stage of control replication is to
// rewrite the program so that every region and subregion has its own
// storage").
//
// A store holds only the fields it is made for, as a Legion physical
// instance does: a root store holds every field of its field space, an
// SPMD instance the fields its plan moves through it (cr.Compiled's
// InstFields), and a reduce temporary or buffer the fields of the
// parameter it folds (TestNewStoreOfHoldsOnlyListedFields). Raw, Fill,
// Rows, CopyFieldFrom, ReduceFieldFrom and EqualOn panic, once per call,
// when asked for a field the store does not hold; Get, Set and Reduce, the
// per-element entry, do not check.
type Store struct {
	layout *Layout
	fs     *FieldSpace
	data   [][]float64 // indexed by FieldID, then slot; nil for a field not held
}

// EltBytes is the storage size of one field of one element: a float64. The
// engines' modeled transfer sizes are volume × EltBytes × fields.
const EltBytes = 8

// NewStore allocates zeroed storage for all fields of fs over is.
func NewStore(is geometry.IndexSpace, fs *FieldSpace) *Store {
	return NewLayout(is).NewStore(fs)
}

// NewStore allocates zeroed storage for all fields of fs over the layout's
// index space. A layout is immutable, so any number of stores may share it.
func (l *Layout) NewStore(fs *FieldSpace) *Store {
	return l.NewStoreOf(fs, fs.Fields())
}

// NewStoreOf allocates zeroed storage for the listed fields of fs over the
// layout's index space; the store holds no other field.
func (l *Layout) NewStoreOf(fs *FieldSpace, fields []FieldID) *Store {
	data := make([][]float64, fs.NumFields())
	for _, f := range fields {
		data[f] = make([]float64, l.Size())
	}
	return &Store{layout: l, fs: fs, data: data}
}

// Clone returns a deep copy of the store: same layout and field space
// (both immutable, so shared), private copies of the fields it holds. It
// is the building block of the SPMD executor's checkpoints.
func (s *Store) Clone() *Store {
	data := make([][]float64, len(s.data))
	for i, d := range s.data {
		if d != nil {
			data[i] = append(make([]float64, 0, len(d)), d...)
		}
	}
	return &Store{layout: s.layout, fs: s.fs, data: data}
}

// Fields returns the fields the store holds, in ID order.
func (s *Store) Fields() []FieldID {
	var out []FieldID
	for i, d := range s.data {
		if d != nil {
			out = append(out, FieldID(i))
		}
	}
	return out
}

// field returns the backing slice of field f, panicking if the store does
// not hold it.
func (s *Store) field(f FieldID) []float64 {
	if uint(f) < uint(len(s.data)) && s.data[f] != nil {
		return s.data[f]
	}
	panic(s.missing(f))
}

// missing is the message of a request for a field the store does not hold,
// out of line so that field inlines.
//
//go:noinline
func (s *Store) missing(f FieldID) string {
	name := fmt.Sprint(f)
	if uint(f) < uint(s.fs.NumFields()) {
		name = s.fs.Name(f)
	}
	return fmt.Sprintf("region: store over %v holds no field %s", s.layout.ispace, name)
}

// Layout returns the store's layout.
func (s *Store) Layout() *Layout { return s.layout }

// FieldSpace returns the store's field space.
func (s *Store) FieldSpace() *FieldSpace { return s.fs }

// IndexSpace returns the index space the store covers.
func (s *Store) IndexSpace() geometry.IndexSpace { return s.layout.ispace }

// Get returns field f at point p.
func (s *Store) Get(f FieldID, p geometry.Point) float64 {
	return s.data[f][s.layout.Slot(p)]
}

// Set assigns field f at point p.
func (s *Store) Set(f FieldID, p geometry.Point, v float64) {
	s.data[f][s.layout.Slot(p)] = v
}

// Reduce folds v into field f at point p with the given operator.
func (s *Store) Reduce(f FieldID, op ReductionOp, p geometry.Point, v float64) {
	slot := s.layout.Slot(p)
	s.data[f][slot] = op.Fold(s.data[f][slot], v)
}

// Raw returns the backing slice for field f (slot-indexed).
func (s *Store) Raw(f FieldID) []float64 { return s.field(f) }

// Fill sets field f to v at every point.
func (s *Store) Fill(f FieldID, v float64) {
	d := s.field(f)
	for i := range d {
		d[i] = v
	}
}

// Rows calls fn for every contiguous run of over's points — the first point
// and a row aliasing the store's backing slice for f, whose element i is
// the point first advanced by i along the last dimension — stopping early
// if fn returns false. Rows come in exactly the order over.Each visits
// points; a row of over that straddles several spans of the store arrives
// as several runs.
func (s *Store) Rows(f FieldID, over geometry.IndexSpace, fn func(first geometry.Point, row []float64) bool) {
	d := s.field(f)
	s.layout.fp.Runs(over, func(p geometry.Point, _ int, slot, n int64) bool {
		return fn(p, d[slot:slot+n])
	})
}

// CopyFieldFrom copies field f values from src at every point of the given
// index space, which must be contained in both stores. This is the explicit
// region-to-region assignment dst ← src of §3.1, restricted to an
// intersection, done one contiguous run at a time.
func (s *Store) CopyFieldFrom(src *Store, f FieldID, over geometry.IndexSpace) {
	d, sd := s.field(f), src.field(f)
	eachRun(s.layout, src.layout, over, func(ds, ss, n int64) bool {
		copy(d[ds:ds+n], sd[ss:ss+n])
		return true
	})
}

// ReduceFieldFrom folds src's field values into s with op at every point of
// over — the "reduction copy" of §4.3 that applies a reduction instance's
// partial results to a destination region. Points are folded in over.Each
// order.
func (s *Store) ReduceFieldFrom(src *Store, f FieldID, op ReductionOp, over geometry.IndexSpace) {
	d, sd := s.field(f), src.field(f)
	eachRun(s.layout, src.layout, over, func(ds, ss, n int64) bool {
		op.foldRow(d[ds:ds+n], sd[ss:ss+n])
		return true
	})
}

// EqualOn reports whether two stores agree on field f at every point of
// over; it is the comparison the equivalence tests use.
func (s *Store) EqualOn(other *Store, f FieldID, over geometry.IndexSpace) bool {
	d, od := s.field(f), other.field(f)
	equal := true
	eachRun(s.layout, other.layout, over, func(ds, os, n int64) bool {
		for i, v := range d[ds : ds+n] {
			if v != od[os+int64(i)] {
				equal = false
				break
			}
		}
		return equal
	})
	return equal
}
