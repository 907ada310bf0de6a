package rt

import (
	"repro/internal/geometry"
	"repro/internal/region"
)

// Fixtures shared with the external schedule golden (package rt_test).
var (
	RepartitionProgram   = repartitionProgram
	NonStationaryProgram = nonStationaryProgram
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
