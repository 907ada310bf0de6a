package progtest

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/region"
)

// Diff is the one whole-result comparison of the equivalence checks: nil
// when got is bitwise identical to want, otherwise one error naming every
// difference. Root stores are paired in creation order (ascending region
// ID, the order independently built copies of a program allocate them in)
// and must carry equal names; every field of every pair is compared slot by
// slot on its float64 bits, and every scalar bound in either environment on
// its bits. The two results may come from different builds of the program
// and from any engine.
func Diff(want, got *ir.SeqResult) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	wr, gr := roots(want.Stores), roots(got.Stores)
	if len(wr) != len(gr) {
		bad("%d root stores, want %d", len(gr), len(wr))
	}
	for i := range min(len(wr), len(gr)) {
		ws, gs := want.Stores[wr[i]], got.Stores[gr[i]]
		if wr[i].Name() != gr[i].Name() || ws.FieldSpace().NumFields() != gs.FieldSpace().NumFields() {
			bad("root %d is %s with %d fields, want %s with %d", i, gr[i].Name(), gs.FieldSpace().NumFields(), wr[i].Name(), ws.FieldSpace().NumFields())
			continue
		}
		for _, f := range ws.FieldSpace().Fields() {
			field := wr[i].Name() + "." + ws.FieldSpace().Name(f)
			w, g := ws.Raw(f), gs.Raw(f)
			if len(w) != len(g) {
				bad("%s has %d slots, want %d", field, len(g), len(w))
				continue
			}
			first, n := 0, 0
			for k := range w {
				if math.Float64bits(w[k]) != math.Float64bits(g[k]) {
					if n == 0 {
						first = k
					}
					n++
				}
			}
			if n > 0 {
				bad("%s differs in %d slots, first slot %d = %v, want %v", field, n, first, g[first], w[first])
			}
		}
	}
	names := make([]string, 0, len(want.Env)+len(got.Env))
	for k := range want.Env {
		names = append(names, k)
	}
	for k := range got.Env {
		if _, ok := want.Env[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		w, inWant := want.Env[k]
		g, inGot := got.Env[k]
		if inWant != inGot || math.Float64bits(w) != math.Float64bits(g) {
			bad("scalar %q = %v (bound %v), want %v (bound %v)", k, g, inGot, w, inWant)
		}
	}
	return errors.Join(errs...)
}

// roots returns the stores' regions in creation order.
func roots(stores map[*region.Region]*region.Store) []*region.Region {
	rs := make([]*region.Region, 0, len(stores))
	for r := range stores {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID() < rs[j].ID() })
	return rs
}
