package rt_test

import (
	"slices"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/bench"
	"repro/internal/intersect"
	"repro/internal/ir"
	"repro/internal/region"
	"repro/internal/rt"
)

// TestPairsBetweenMatchesPairs: the runtime counts overlap volumes instead
// of building overlaps, and must keep exactly intersect.Pairs' (src, dst,
// volume) list, order included, for every ordered pair of partitions of one
// region tree that a program's launches take, at the schedule golden's sizes
// and at the figures' (whose span lists take the sweeps).
func TestPairsBetweenMatchesPairs(t *testing.T) {
	type prog struct {
		name string
		prog *ir.Program
	}
	var progs []prog
	for _, g := range goldenProgs() {
		for _, n := range []int{1, 4} {
			progs = append(progs, prog{g.name, g.build(n)})
		}
	}
	for _, app := range []struct {
		name    string
		program func(nodes, iters int, native bool) (*ir.Program, *ir.Loop, bench.Tuning)
	}{
		{"stencil", stencil.Program}, {"miniaero", miniaero.Program},
		{"pennant", pennant.Program}, {"circuit", circuit.Program},
	} {
		p, _, _ := app.program(16, 2, false)
		progs = append(progs, prog{app.name + "/16", p})
	}
	for _, p := range progs {
		var parts []*region.Partition
		collectParts(p.prog.Stmts, func(part *region.Partition) {
			if !slices.Contains(parts, part) {
				parts = append(parts, part)
			}
		})
		for _, src := range parts {
			for _, dst := range parts {
				if src.Parent().Root() != dst.Parent().Root() {
					continue
				}
				var want []rt.PairVolume
				for _, pr := range intersect.Pairs(src, dst) {
					want = append(want, rt.PairVolume{Src: pr.Src, Dst: pr.Dst, Vol: pr.Overlap.Volume()})
				}
				if got := rt.PairVolumes(src, dst); !slices.Equal(got, want) {
					t.Errorf("%s: %s -> %s:\n got %v\nwant %v", p.name, src.Name(), dst.Name(), got, want)
				}
			}
		}
	}
}

func collectParts(stmts []ir.Stmt, fn func(*region.Partition)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Launch:
			for _, a := range s.Args {
				fn(a.Part)
			}
		case *ir.Loop:
			collectParts(s.Body, fn)
		}
	}
}
