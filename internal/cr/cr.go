// Package cr implements control replication (the paper's contribution,
// §3-§4): the compiler transformation that turns an implicitly parallel
// loop of index launches into SPMD shards with explicit copies and
// synchronization.
//
// Compile runs the phases of §3 in order:
//
//  1. target detection — the loop body must be forall launches of tasks
//     over a common domain plus restricted scalar statements (§2.2);
//  2. data replication — every partition gets its own storage; copies are
//     inserted after writes to partitions that alias other used partitions,
//     plus initialization and finalization copies (§3.1);
//  3. copy placement — redundant-copy elimination, dead-copy elimination
//     and loop-invariant code motion at partition granularity (§3.2);
//  4. copy intersection — shallow (interval tree / BVH) then complete
//     intersections compute the exact communication pairs, replacing the
//     O(N^2) all-pairs copy loop with the non-empty pairs (§3.3);
//  5. synchronization — each copy pair carries producer/consumer sync,
//     lowered either to barriers (the naive Figure 4c form) or to
//     point-to-point synchronization between exactly the tasks with
//     non-empty intersections (§3.4), selected by Options.Sync;
//  6. shard creation — the launch domain is block-partitioned over shards,
//     each of which replicates the loop's control flow over its block
//     (§3.5).
//
// Region reductions go through temporary reduction instances applied with
// reduction copies (§4.3); scalar reductions become dynamic collectives
// (§4.4). The executor for compiled programs is package spmd.
package cr

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/geometry"
	"repro/internal/intersect"
	"repro/internal/ir"
	"repro/internal/region"
)

// SyncMode selects how copies synchronize with consumers.
type SyncMode int8

// Synchronization lowering choices (§3.4): point-to-point synchronization
// scoped to the non-empty intersection pairs, or the naive global barriers
// of Figure 4c (kept as an ablation baseline).
const (
	PointToPoint SyncMode = iota
	BarrierSync
)

// String names the mode.
func (m SyncMode) String() string {
	if m == BarrierSync {
		return "barrier"
	}
	return "p2p"
}

// Options configures compilation.
type Options struct {
	// NumShards is the number of long-running shard tasks to create.
	NumShards int
	// Sync selects the synchronization lowering.
	Sync SyncMode
	// NoPlacementOpt disables the §3.2 copy-placement passes (redundancy,
	// dead-copy elimination, hoisting), leaving the naive Figure 4a
	// placement. Exposed for the placement ablation.
	NoPlacementOpt bool
	// Agg coalesces each exchange phase's copy pairs into one transfer per
	// (producing shard, destination shard) group: the executor issues a
	// single merged CopyBytes per group with summed bytes and the union
	// of the members' preconditions, running member writes in capture
	// order. Default off; an aggregated schedule is licensed by
	// verify.CheckAgg the way pruning is licensed by verify.PlanPrune.
	Agg bool
}

// BodyOp is one operation of the transformed loop body: exactly one of the
// fields is set.
type BodyOp struct {
	Launch *ir.Launch
	Set    *ir.SetScalar
	Copy   *CopyOp
}

// Kind describes the op for diagnostics.
func (op BodyOp) Kind() string {
	switch {
	case op.Launch != nil:
		return "launch"
	case op.Set != nil:
		return "scalar"
	default:
		return "copy"
	}
}

// CopyOp is a compiler-inserted region-to-region copy between partition
// instances. A plain copy (Reduce == ReduceNone) overwrites the overlap
// Dst[j] <- Src[i] for each pair; a reduction copy folds the reduce-temp of
// its source launch into the destination instances (§4.3).
type CopyOp struct {
	ID     int
	Src    *region.Partition
	Dst    *region.Partition
	Fields []region.FieldID
	Reduce region.ReductionOp
	// SrcLaunch/SrcArg locate the reduce temp for reduction copies: the
	// launch whose temporary holds the contributions and its argument slot.
	// Nil for plain copies.
	SrcLaunch *ir.Launch
	SrcArg    int
	// Pairs are the non-empty (source color, destination color) overlaps,
	// sorted by destination then source color; the executor chains
	// reduction applications to a destination in this order so results are
	// deterministic.
	Pairs []intersect.Pair
}

// String summarizes the copy.
func (c *CopyOp) String() string {
	kind := "copy"
	if c.Reduce != region.ReduceNone {
		kind = fmt.Sprintf("reduce(%v)", c.Reduce)
	}
	return fmt.Sprintf("%s %s -> %s (%d pairs)", kind, c.Src.Name(), c.Dst.Name(), len(c.Pairs))
}

// IntersectTimings records the wall-clock cost of the dynamic intersection
// phases — the quantities Table 1 of the paper reports. Shallow and Complete
// accrue once per distinct (Src, Dst) partition pair, which is how often the
// phases run; Candidates and Pairs count every copy's.
type IntersectTimings struct {
	Shallow    time.Duration
	Complete   time.Duration
	Candidates int
	Pairs      int
}

// Report counts what each compilation phase did, for tests and the crc
// driver.
type Report struct {
	CopiesInserted   int
	RedundantRemoved int
	DeadRemoved      int
	Hoisted          int
	FinalCopies      int
}

// Compiled is a control-replicated loop ready for SPMD execution.
type Compiled struct {
	Prog   *ir.Program
	Loop   *ir.Loop
	Opts   Options
	Domain []geometry.Point

	// Shard ownership: block partition of the domain (§3.5). ColorIdx gives
	// each color's position in Domain (used e.g. to index collectives).
	Owned    [][]geometry.Point
	ShardOf  map[geometry.Point]int
	ColorIdx map[geometry.Point]int

	// Body is the transformed loop body; InitCopies are loop-invariant
	// copies hoisted to run once before the loop.
	Body       []BodyOp
	InitCopies []*CopyOp

	// UsedParts are all partitions referenced in the loop, in first-use
	// order; PartFields gives the fields touched per partition directly by
	// its tasks. InstFields additionally includes fields an instance
	// receives through copies (e.g. reduction folds routed to a disjoint
	// finalization home); instances carry, and initialization and
	// finalization move, InstFields. WrittenDisjoint are the disjoint
	// written partitions finalization copies back to the parent regions.
	UsedParts       []*region.Partition
	PartFields      map[*region.Partition][]region.FieldID
	InstFields      map[*region.Partition][]region.FieldID
	WrittenDisjoint []*region.Partition

	Timings IntersectTimings
	Report  Report

	// Exchanges is parallel to Body: the exchange starting at each op, with
	// every shard's step list over it (exchange.go).
	Exchanges []Exchange

	// Prune is the certifier-licensed redundant-sync and dead-init skip set
	// (verify.PlanPrune); nil — the default — leaves the conservative
	// schedule exactly as compiled.
	Prune *PruneInfo

	domainSet map[geometry.Point]bool
}

// Compile control-replicates one loop of the program.
func Compile(prog *ir.Program, loop *ir.Loop, opts Options) (*Compiled, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	ir.NormalizeProjections(prog)
	if opts.NumShards <= 0 {
		return nil, fmt.Errorf("cr: NumShards must be positive")
	}

	info, err := analyzeLoop(prog, loop)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Prog:       prog,
		Loop:       loop,
		Opts:       opts,
		Domain:     info.domain,
		UsedParts:  info.usedParts,
		PartFields: info.partFields,
	}

	c.Body, c.Report.CopiesInserted = insertCopies(info)
	if !opts.NoPlacementOpt {
		placeCopies(c, info)
	}
	if err := c.computeIntersections(); err != nil {
		return nil, err
	}
	if err := c.planFinalization(info); err != nil {
		return nil, err
	}
	c.createShards()
	c.buildExchanges()
	c.computeInstFields()
	for _, op := range c.Body {
		if op.Copy != nil {
			c.Report.FinalCopies++
		}
	}
	return c, nil
}

// computeInstFields extends each partition's instance fields with whatever
// its instances receive through copies, so initialization seeds and
// finalization recovers them.
func (c *Compiled) computeInstFields() {
	c.InstFields = make(map[*region.Partition][]region.FieldID, len(c.PartFields))
	for _, p := range c.UsedParts {
		c.InstFields[p] = slices.Clone(c.PartFields[p])
	}
	for _, op := range c.Body {
		if cp := op.Copy; cp != nil {
			c.InstFields[cp.Dst] = region.UnionFields(c.InstFields[cp.Dst], cp.Fields)
		}
	}
	for _, cp := range c.InitCopies {
		c.InstFields[cp.Dst] = region.UnionFields(c.InstFields[cp.Dst], cp.Fields)
	}
}

// createShards block-partitions the launch domain over the shards (§3.5).
func (c *Compiled) createShards() {
	ns := c.Opts.NumShards
	if ns > len(c.Domain) {
		ns = len(c.Domain)
		c.Opts.NumShards = ns
	}
	c.Owned = make([][]geometry.Point, ns)
	c.ShardOf = make(map[geometry.Point]int, len(c.Domain))
	c.ColorIdx = make(map[geometry.Point]int, len(c.Domain))
	for i, col := range c.Domain {
		c.ColorIdx[col] = i
	}
	n := len(c.Domain)
	for s := 0; s < ns; s++ {
		lo, hi := s*n/ns, (s+1)*n/ns
		c.Owned[s] = c.Domain[lo:hi]
		for _, col := range c.Owned[s] {
			c.ShardOf[col] = s
		}
	}
}

// computeIntersections runs the two-phase intersection computation for
// every copy (§3.3), once per distinct (Src, Dst) partition pair: copies of
// different fields between the same two partitions share one pair list,
// which nothing downstream writes through.
func (c *Compiled) computeIntersections() error {
	memo := make(map[[2]*region.Partition]intersection)
	for _, op := range c.Body {
		if op.Copy == nil {
			continue
		}
		if err := c.intersectCopy(op.Copy, memo); err != nil {
			return err
		}
	}
	for _, cp := range c.InitCopies {
		if err := c.intersectCopy(cp, memo); err != nil {
			return err
		}
	}
	return nil
}

// intersection is what intersectCopy keeps per partition pair: the pairs
// inside the launch domain and the shallow phase's candidate count.
type intersection struct {
	pairs []intersect.Pair
	cands int
}

func (c *Compiled) intersectCopy(cp *CopyOp, memo map[[2]*region.Partition]intersection) error {
	if cp.Reduce == region.ReduceNone && cp.Src == cp.Dst {
		// A plain copy between distinct partitions keeps all pairs; Src ==
		// Dst never occurs for plain copies (instances do not copy to
		// themselves).
		return fmt.Errorf("cr: plain self copy on %s", cp.Src.Name())
	}
	key := [2]*region.Partition{cp.Src, cp.Dst}
	is, ok := memo[key]
	if !ok {
		//detlint:ignore Timings reports the host cost of the intersections (Table 1); nothing compiled depends on it
		t0 := time.Now()
		cands := intersect.Shallow(cp.Src, cp.Dst)
		//detlint:ignore as above
		t1 := time.Now()
		pairs := intersect.Complete(cp.Src, cp.Dst, cands)
		//detlint:ignore as above
		t2 := time.Now()
		c.Timings.Shallow += t1.Sub(t0)
		c.Timings.Complete += t2.Sub(t1)
		// Restrict to the launch domain: partitions may carry colors the loop
		// never launches, and those have no instances. Order stays (dst, src),
		// which the executor relies on to chain reduction applications
		// deterministically.
		if c.domainSet == nil {
			c.domainSet = make(map[geometry.Point]bool, len(c.Domain))
			for _, col := range c.Domain {
				c.domainSet[col] = true
			}
		}
		kept := pairs[:0]
		for _, p := range pairs {
			if c.domainSet[p.Src] && c.domainSet[p.Dst] {
				kept = append(kept, p)
			}
		}
		is = intersection{pairs: kept, cands: len(cands)}
		memo[key] = is
	}
	cp.Pairs = is.pairs
	c.Timings.Candidates += is.cands
	c.Timings.Pairs += len(is.pairs)
	return nil
}

// planFinalization determines which partitions carry final data back to the
// parent regions and checks coverage: every element written anywhere in the
// loop must be covered by a disjoint partition whose instances receive the
// data (directly or through the inserted copies), or the final state of the
// region would be unrecoverable from the distributed instances. A loop that
// touches a region *only* through aliased partitions (e.g. reductions into
// an image with no disjoint partition used at all) is rejected — final
// state needs a disjoint home, which every practical Regent program (and
// all four evaluation apps) provides.
func (c *Compiled) planFinalization(info *loopInfo) error {
	covered := make(map[*region.Region]geometry.IndexSpace)
	var writtenAll []*region.Partition
	for _, p := range c.UsedParts {
		if info.written[p] {
			writtenAll = append(writtenAll, p)
		}
	}
	// A partition's instances hold final data if it is disjoint and either
	// written directly or the destination of copies; aliased partitions are
	// excluded (their instances may hold duplicated stale overlaps).
	seen := map[*region.Partition]bool{}
	addFinal := func(p *region.Partition) {
		if seen[p] || !p.Disjoint() {
			return
		}
		seen[p] = true
		c.WrittenDisjoint = append(c.WrittenDisjoint, p)
		root := p.Parent().Root()
		u := p.Union()
		if cur, ok := covered[root]; ok {
			covered[root] = cur.Union(u)
		} else {
			covered[root] = u
		}
	}
	for _, p := range writtenAll {
		addFinal(p)
	}
	for _, op := range c.Body {
		if op.Copy != nil {
			addFinal(op.Copy.Dst)
		}
	}
	for _, p := range writtenAll {
		root := p.Parent().Root()
		u := p.Union()
		got, ok := covered[root]
		if !ok || !got.ContainsAll(u) {
			return fmt.Errorf("cr: writes to aliased partition %s are not covered by any disjoint written partition; finalization cannot recover the region state", p.Name())
		}
	}
	return nil
}
