package rt

import (
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// PairVolume is one color pair pairsBetween keeps.
type PairVolume struct {
	Src, Dst geometry.Point
	Vol      int64
}

// PairVolumes is pairsBetween on an engine of its own.
func PairVolumes(src, dst *region.Partition) []PairVolume {
	e := &Engine{pairCache: make(map[pairKey][]pairInfo)}
	var out []PairVolume
	for _, p := range e.pairsBetween(src, dst) {
		out = append(out, PairVolume{p.src, p.dst, p.vol})
	}
	return out
}

// RepartitionProgram builds a loop that increments a field through a
// disjoint partition, and swaps that partition for a differently-cut one
// (a mid-loop repartition) at iteration swapAt, via a scalar statement's
// side effect on the launch's argument. The second partition is disjoint
// too, or aliased (its first two subregions overlap), which a read-write
// launch must not be given.
func RepartitionProgram(n, nt int64, trip, swapAt int, aliased bool) (*ir.Program, *region.Region, region.FieldID) {
	p := ir.NewProgram("repartition")
	fs := region.NewFieldSpace("v")
	v := fs.Field("v")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs

	pa := r.Block("PA", nt)
	// A second partition with the same color count but uneven cuts: the
	// first subregion absorbs half of the second's span.
	subs := make(map[geometry.Point]geometry.IndexSpace, nt)
	step := n / nt
	for i := int64(0); i < nt; i++ {
		lo, hi := i*step, (i+1)*step-1
		switch i {
		case 0:
			hi += step / 2
		case 1:
			if !aliased {
				lo += step / 2
			}
		}
		subs[geometry.Pt1(i)] = geometry.NewIndexSpace(geometry.R1(lo, hi))
	}
	pb := r.BySubsets("PB", geometry.NewIndexSpace(geometry.R1(0, nt-1)), subs)

	task := &ir.TaskDecl{
		Name:   "inc",
		Params: []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{v}}},
		Kernel: func(tc *ir.TaskCtx) {
			arg := &tc.Args[0]
			arg.Each(func(pt geometry.Point) bool {
				arg.Set(v, pt, arg.Get(v, pt)+1)
				return true
			})
		},
		CostPerElem: 100,
	}
	launch := &ir.Launch{Task: task, Domain: ir.Colors1D(nt), Args: []ir.RegionArg{{Part: pa}}}
	swapped := false
	p.Add(
		&ir.FillFunc{Target: r, Field: v, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&ir.Loop{Var: "t", Trip: trip, Body: []ir.Stmt{
			&ir.SetScalar{Name: "swap", Expr: func(env ir.Env) float64 {
				if !swapped && int(env.Get("t")) == swapAt {
					launch.Args[0].Part = pb
					swapped = true
				}
				return 0
			}},
			launch,
		}},
	)
	return p, r, v
}

// NonStationaryProgram builds a loop whose launch covers only half of its
// partition's colors: the writer is never "full", so no epoch entry is ever
// pruned and the epoch lists grow every iteration.
func NonStationaryProgram() *ir.Program {
	n, nt := int64(64), int64(8)
	p := ir.NewProgram("nonstationary")
	fs := region.NewFieldSpace("v")
	v := fs.Field("v")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pa := r.Block("PA", nt)
	task := &ir.TaskDecl{
		Name:        "halfinc",
		Params:      []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{v}}},
		CostPerElem: 100,
	}
	p.Add(&ir.Loop{Var: "t", Trip: 12, Body: []ir.Stmt{
		&ir.Launch{Task: task, Domain: ir.Colors1D(nt / 2), Args: []ir.RegionArg{{Part: pa}}},
	}})
	return p
}
