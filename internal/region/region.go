// Package region implements the logical-region data model of Legion/Regent:
// regions (named collections of elements identified by an index space),
// partitions of regions into subregions, region trees recording the
// region/partition hierarchy, the disjointness analysis over those trees
// (paper §2.3), the partitioning operators of Regent's partitioning
// sub-language (block, image, preimage, and the set operators), and typed
// field storage for physical instances.
package region

import (
	"fmt"
	"sync"

	"repro/internal/geometry"
)

// RegionID uniquely identifies a region within a Tree.
type RegionID int32

// PartitionID uniquely identifies a partition within a Tree.
type PartitionID int32

// Tree is a forest of region trees. Regions alternate with partitions:
// a region may have any number of partitions; a partition has one subregion
// per color. The tree is the structure against which all aliasing questions
// are answered.
type Tree struct {
	regions    []*Region
	partitions []*Partition
}

// NewTree returns an empty region forest.
func NewTree() *Tree { return &Tree{} }

// Region is a logical region: a named set of elements identified by the
// points of an index space. A region created by NewRegion is a root; a
// region created by a partitioning operator is a subregion of its parent.
type Region struct {
	id     RegionID
	tree   *Tree
	name   string
	ispace geometry.IndexSpace
	volume int64 // ispace.Volume(), fixed with ispace at construction

	parent *Partition     // nil for roots
	color  geometry.Point // color within parent (zero for roots)

	partitions []*Partition
}

// Partition is an object naming a set of subregions of a common parent,
// indexed by the points of a color space. A partition is disjoint if its
// subregions are guaranteed pairwise non-overlapping, and complete if their
// union covers the parent; both are statically recorded properties
// established by the operator that created the partition.
type Partition struct {
	id         PartitionID
	tree       *Tree
	name       string
	parent     *Region
	colorSpace geometry.IndexSpace
	children   map[geometry.Point]*Region
	colors     []geometry.Point // deterministic iteration order
	disjoint   bool
	complete   bool

	unionOnce sync.Once
	unionMemo geometry.IndexSpace
}

// NewRegion creates a root region over the given index space.
func (t *Tree) NewRegion(name string, is geometry.IndexSpace) *Region {
	r := &Region{
		id:     RegionID(len(t.regions)),
		tree:   t,
		name:   name,
		ispace: is,
		volume: is.Volume(),
	}
	t.regions = append(t.regions, r)
	return r
}

// Regions returns all regions in creation order.
func (t *Tree) Regions() []*Region { return t.regions }

// Partitions returns all partitions in creation order.
func (t *Tree) Partitions() []*Partition { return t.partitions }

// ID returns the region's identifier.
func (r *Region) ID() RegionID { return r.id }

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// IndexSpace returns the region's index space.
func (r *Region) IndexSpace() geometry.IndexSpace { return r.ispace }

// Volume returns the number of elements in the region, counted once when
// the region was built.
func (r *Region) Volume() int64 { return r.volume }

// Parent returns the partition this region is a subregion of, or nil for a
// root region.
func (r *Region) Parent() *Partition { return r.parent }

// Color returns this region's color within its parent partition.
func (r *Region) Color() geometry.Point { return r.color }

// Partitions returns the partitions of this region in creation order.
func (r *Region) Partitions() []*Partition { return r.partitions }

// Root returns the root region of r's tree.
func (r *Region) Root() *Region {
	for r.parent != nil {
		r = r.parent.parent
	}
	return r
}

// String formats the region for diagnostics.
func (r *Region) String() string { return fmt.Sprintf("region(%s)", r.name) }

// newPartition is the common constructor behind the partition operators.
func (r *Region) newPartition(name string, colorSpace geometry.IndexSpace, subspaces map[geometry.Point]geometry.IndexSpace, disjoint, complete bool) *Partition {
	p := &Partition{
		id:         PartitionID(len(r.tree.partitions)),
		tree:       r.tree,
		name:       name,
		parent:     r,
		colorSpace: colorSpace,
		children:   make(map[geometry.Point]*Region, len(subspaces)),
		disjoint:   disjoint,
		complete:   complete,
	}
	colorSpace.Each(func(c geometry.Point) bool {
		is, ok := subspaces[c]
		if !ok {
			is = geometry.EmptyIndexSpace(r.ispace.Dim())
		}
		sub := &Region{
			id:     RegionID(len(r.tree.regions)),
			tree:   r.tree,
			name:   fmt.Sprintf("%s[%v]", name, c),
			ispace: is,
			volume: is.Volume(),
			parent: p,
			color:  c,
		}
		r.tree.regions = append(r.tree.regions, sub)
		p.children[c] = sub
		p.colors = append(p.colors, c)
		return true
	})
	r.tree.partitions = append(r.tree.partitions, p)
	r.partitions = append(r.partitions, p)
	return p
}

// ID returns the partition's identifier.
func (p *Partition) ID() PartitionID { return p.id }

// Name returns the partition's diagnostic name.
func (p *Partition) Name() string { return p.name }

// Parent returns the region this partition divides.
func (p *Partition) Parent() *Region { return p.parent }

// ColorSpace returns the partition's color space.
func (p *Partition) ColorSpace() geometry.IndexSpace { return p.colorSpace }

// Colors returns the partition's colors in deterministic order.
func (p *Partition) Colors() []geometry.Point { return p.colors }

// Disjoint reports whether the subregions are statically known to be
// pairwise non-overlapping.
func (p *Partition) Disjoint() bool { return p.disjoint }

// Complete reports whether the subregions are statically known to cover the
// parent region.
func (p *Partition) Complete() bool { return p.complete }

// Sub returns the subregion with the given color. It panics if the color is
// not in the color space.
func (p *Partition) Sub(c geometry.Point) *Region {
	r, ok := p.children[c]
	if !ok {
		panic(fmt.Sprintf("region: partition %s has no color %v", p.name, c))
	}
	return r
}

// Sub1 returns the subregion with 1-D color i.
func (p *Partition) Sub1(i int64) *Region { return p.Sub(geometry.Pt1(i)) }

// Each calls fn for each (color, subregion) pair in deterministic order.
func (p *Partition) Each(fn func(geometry.Point, *Region) bool) {
	for _, c := range p.colors {
		if !fn(c, p.children[c]) {
			return
		}
	}
}

// Union returns the union of the partition's subregion index spaces. It
// exploits the partition's static properties: complete partitions cover the
// parent exactly, and disjoint partitions' spans concatenate with no
// quadratic de-overlapping pass — only aliased incomplete partitions pay
// for a real union. Shared by the CR compiler's finalization planning and
// the implicit runtime's domination analysis, both of which re-ask this
// question for partitions with thousands of subregions.
func (p *Partition) Union() geometry.IndexSpace {
	if p.complete {
		return p.parent.IndexSpace()
	}
	// Subregion index spaces are fixed at construction, so the union is
	// computed once per partition; both the dependence analyzers and the
	// compiler's completeness checks re-request it freely.
	p.unionOnce.Do(func() { p.unionMemo = p.computeUnion() })
	return p.unionMemo
}

func (p *Partition) computeUnion() geometry.IndexSpace {
	dim := p.parent.IndexSpace().Dim()
	if p.disjoint {
		n := 0
		for _, c := range p.colors {
			n += p.children[c].ispace.NumSpans()
		}
		spans := make([]geometry.Rect, 0, n)
		p.Each(func(_ geometry.Point, sub *Region) bool {
			for i := 0; i < sub.ispace.NumSpans(); i++ {
				spans = append(spans, sub.ispace.Span(i))
			}
			return true
		})
		return geometry.FromDisjointRects(dim, spans)
	}
	spaces := make([]geometry.IndexSpace, 0, len(p.colors))
	p.Each(func(_ geometry.Point, sub *Region) bool {
		spaces = append(spaces, sub.IndexSpace())
		return true
	})
	return geometry.UnionMany(dim, spaces)
}

// String formats the partition for diagnostics.
func (p *Partition) String() string {
	kind := "aliased"
	if p.disjoint {
		kind = "disjoint"
	}
	return fmt.Sprintf("partition(%s, %s)", p.name, kind)
}
