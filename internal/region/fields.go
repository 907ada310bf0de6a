package region

import (
	"fmt"
	"math"
	"slices"
)

// FieldID identifies a field within a field space.
type FieldID int32

// FieldSpace names the set of fields stored for each element of a region.
// All fields hold float64 values; vector quantities use one field per
// component, and mesh topology lives in application data structures (the
// compiler analysis never inspects element values, only privileges).
type FieldSpace struct {
	names []string
}

// NewFieldSpace creates a field space with the given field names.
func NewFieldSpace(names ...string) *FieldSpace {
	fs := &FieldSpace{names: append([]string(nil), names...)}
	return fs
}

// Add appends a field and returns its ID.
func (fs *FieldSpace) Add(name string) FieldID {
	fs.names = append(fs.names, name)
	return FieldID(len(fs.names) - 1)
}

// NumFields returns the number of fields.
func (fs *FieldSpace) NumFields() int { return len(fs.names) }

// Name returns the name of field f.
func (fs *FieldSpace) Name(f FieldID) string { return fs.names[f] }

// Field returns the ID of the named field, panicking if absent.
func (fs *FieldSpace) Field(name string) FieldID {
	for i, n := range fs.names {
		if n == name {
			return FieldID(i)
		}
	}
	panic(fmt.Sprintf("region: no field named %q", name))
}

// Fields returns all field IDs in declaration order.
func (fs *FieldSpace) Fields() []FieldID {
	out := make([]FieldID, len(fs.names))
	for i := range out {
		out[i] = FieldID(i)
	}
	return out
}

// A field list is a []FieldID with distinct IDs whose order is meaningful
// to its owner (sorted, append or parameter order). Lists are a handful of
// fields long, so the questions below scan rather than build sets.

// SharedFields returns how many fields of a are also in b.
func SharedFields(a, b []FieldID) int {
	n := 0
	for _, f := range a {
		if slices.Contains(b, f) {
			n++
		}
	}
	return n
}

// CommonFields returns the fields of a that are also in b, in a's order
// (nil when there are none).
func CommonFields(a, b []FieldID) []FieldID {
	var out []FieldID
	for _, f := range a {
		if slices.Contains(b, f) {
			out = append(out, f)
		}
	}
	return out
}

// CoversFields reports whether every field of sub is in sup.
func CoversFields(sup, sub []FieldID) bool {
	for _, f := range sub {
		if !slices.Contains(sup, f) {
			return false
		}
	}
	return true
}

// UnionFields appends to a, in b's order, each field of b that a lacks, and
// returns the result; like append, it may reuse a's backing array.
func UnionFields(a, b []FieldID) []FieldID {
	for _, f := range b {
		if !slices.Contains(a, f) {
			a = append(a, f)
		}
	}
	return a
}

// ReductionOp identifies an associative and commutative reduction operator,
// the only loop-carried dependencies control replication admits (§2.2,
// §4.3, §4.4).
type ReductionOp int8

// The supported reduction operators.
const (
	ReduceNone ReductionOp = iota
	ReduceSum
	ReduceMin
	ReduceMax
)

// Identity returns the operator's identity element (the value reduction
// instances are initialized to, §4.3).
func (op ReductionOp) Identity() float64 {
	switch op {
	case ReduceSum:
		return 0
	case ReduceMin:
		return inf
	case ReduceMax:
		return -inf
	default:
		panic("region: Identity on ReduceNone")
	}
}

// Fold combines an accumulated value with a new contribution.
func (op ReductionOp) Fold(acc, v float64) float64 {
	switch op {
	case ReduceSum:
		return acc + v
	case ReduceMin:
		if v < acc {
			return v
		}
		return acc
	case ReduceMax:
		if v > acc {
			return v
		}
		return acc
	default:
		panic("region: Fold on ReduceNone")
	}
}

// foldRow folds src into dst element by element: dst[i] = Fold(dst[i],
// src[i]), with the operator dispatched once per row.
func (op ReductionOp) foldRow(dst, src []float64) {
	src = src[:len(dst)]
	switch op {
	case ReduceSum:
		for i, v := range src {
			dst[i] += v
		}
	case ReduceMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case ReduceMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	default:
		panic("region: Fold on ReduceNone")
	}
}

// String names the operator.
func (op ReductionOp) String() string {
	switch op {
	case ReduceNone:
		return "none"
	case ReduceSum:
		return "+"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReductionOp(%d)", int8(op))
	}
}

var inf = math.Inf(1)
