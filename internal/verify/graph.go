package verify

import (
	"strconv"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// EdgeClass names a class of deletable happens-before edges — the
// synchronization the compiler/runtime inserts, as opposed to the
// structural dependence edges of the issue loop itself.
type EdgeClass int8

const (
	edgeStruct EdgeClass = iota // local dependence / phase edges; never deleted
	// EdgeWAR is the consumer's release into a pair's war event: prior
	// readers (and the prior writer) of the destination instance must
	// finish before the copy may overwrite it (§3.4).
	EdgeWAR
	// EdgeDone is a pair's copy completion into its done event: consumers
	// of the destination instance wait on it (read-after-write), and the
	// shard's iteration-completion merge carries it to finalization.
	EdgeDone
	// EdgeChain orders a reduction application after the previous
	// application to the same destination instance (deterministic fold
	// order, §4.3).
	EdgeChain
	// EdgeBarrier is the arrivals into one of a copy's two global barriers
	// in the naive Figure 4c lowering; Pair holds the phase (0 = the
	// write-after-read barrier, 1 = the read-after-write barrier).
	EdgeBarrier
)

func (c EdgeClass) String() string {
	switch c {
	case EdgeWAR:
		return "war"
	case EdgeDone:
		return "done"
	case EdgeChain:
		return "chain"
	case EdgeBarrier:
		return "barrier"
	}
	return "struct"
}

// EdgeID identifies one deletable synchronization: the class, the copy op
// it belongs to, and the pair index (or barrier phase). The same EdgeID
// labels the edge in every unrolled iteration, so deleting it models the
// compiler never inserting that sync.
type EdgeID struct {
	Class EdgeClass `json:"class"`
	Copy  int       `json:"copy"`
	Pair  int       `json:"pair"`
}

func (e EdgeID) String() string {
	return e.Class.String() + "(" + strconv.Itoa(e.Copy) + "," + strconv.Itoa(e.Pair) + ")"
}

type nodeID int32

// instID is an instance's dense index into builder.refs.
type instID int32

type nodeKind int8

const (
	kInit nodeKind = iota
	kInitCopy
	kLoopStart
	kTask
	kCopy
	kWar
	kDone
	kBarrier
	kLoopEnd
	kFinal
)

// node is one vertex of the happens-before DAG: a task launch instance, a
// copy pair transfer, a synchronization event, or a phase marker.
type node struct {
	kind   nodeKind
	iter   int32 // -1 for pre-loop nodes, iters for loopEnd/final
	body   int32 // body op index; -1 when not applicable
	sub    int32 // pair index within the copy op, or barrier phase
	copyID int32 // CopyOp.ID for copy/war/done/barrier nodes; -1 otherwise
	color  geometry.Point
	shard  int32 // issuing shard; -1 = control thread / none
}

type edge struct {
	from, to nodeID
	label    EdgeID
}

// barrierArrival records one global barrier's arrival count: how many
// shards arrive (got) against its participant count (want). The executor
// arrives unconditionally at both of a copy's barriers on every shard, so
// got == want by construction; the liveness mutation harness perturbs got
// to model a shard skipping its arrival (the barrier never triggers).
type barrierArrival struct {
	b      nodeID
	copyID int32
	iter   int32
	phase  int32
	got    int
	want   int
}

type graph struct {
	nodes    []node
	edges    []edge
	iters    int
	arrivals []barrierArrival
}

func (g *graph) add(n node) nodeID {
	g.nodes = append(g.nodes, n)
	return nodeID(len(g.nodes) - 1)
}

func (g *graph) edge(from, to nodeID) {
	g.edges = append(g.edges, edge{from: from, to: to})
}

func (g *graph) ledge(from, to nodeID, id EdgeID) {
	g.edges = append(g.edges, edge{from: from, to: to, label: id})
}

// adjacency materializes the forward adjacency list with the dropped edge
// labels removed. Each node's successors are a capacity-clipped window of
// one slab: appending past a window copies it out, never into its neighbor.
func (g *graph) adjacency(dropped map[EdgeID]bool) [][]nodeID {
	deg := make([]int, len(g.nodes))
	for i := range g.edges {
		deg[g.edges[i].from]++
	}
	adj, slab, off := make([][]nodeID, len(g.nodes)), make([]nodeID, len(g.edges)), 0
	for i, d := range deg {
		adj[i], off = slab[off:off:off+d], off+d
	}
	for i := range g.edges {
		e := &g.edges[i]
		if len(dropped) > 0 && e.label.Class != edgeStruct && dropped[e.label] {
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	return adj
}

// nodeKey is a copy, sync-event or barrier node's identity.
type nodeKey struct {
	kind              nodeKind
	copyID, sub, iter int32
}

// copyNodes indexes those nodes by identity, first occurrence winning. A
// scan per lookup is quadratic where it matters: PENNANT at 1024 shards has
// 55 818 nodes and the liveness mutations look up three per copy pair.
func (g *graph) copyNodes() map[nodeKey]nodeID {
	idx := make(map[nodeKey]nodeID)
	for i := len(g.nodes) - 1; i >= 0; i-- {
		if n := &g.nodes[i]; n.copyID >= 0 {
			idx[nodeKey{n.kind, n.copyID, n.sub, n.iter}] = nodeID(i)
		}
	}
	return idx
}

// seqBefore reports whether node x precedes y in the sequential program
// order: iteration, body index, then sub-op (copy pair) index, ties broken
// by node id. Initialization sorts before everything, finalization after.
func (g *graph) seqBefore(x, y nodeID) bool {
	a, b := &g.nodes[x], &g.nodes[y]
	if a.iter != b.iter {
		return a.iter < b.iter
	}
	if a.body != b.body {
		return a.body < b.body
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return x < y
}

// instRef identifies one physical instance: a partition subregion (part !=
// nil) or a reduce temporary (launch+arg). Comparable: the builder interns
// each one to a dense id (instID) the first time it is touched.
type instRef struct {
	part  *region.Partition
	l     *ir.Launch
	arg   int
	color geometry.Point
}

// access is one node's touch of an instance: the fields and elements it
// reads or writes. Reduction applications are writes (read-modify-write
// whose order the sequential semantics fixes).
type access struct {
	n      nodeID
	inst   instID
	fields []region.FieldID
	space  geometry.IndexSpace
	write  bool
}

// symState is the symbolic analogue of the executor's per-instance
// dependence state (spmd.instState): the set of nodes after which the
// instance's contents are valid, and the readers issued since.
type symState struct {
	lastWrite []nodeID
	readers   []nodeID
}

// warOb is one war event's ordering obligation: every node of the
// consumer's release set must happen-before the producer's copy node, or
// skipping the war reorders a write-after-read. Collected (under
// collectWar) for every p2p war slot, pruned (warN == -1, the obligation
// must hold through the remaining graph) or kept (warN set, so the
// proposal pass can ask whether the obligation would survive removing
// exactly this event).
type warOb struct {
	copyID  int
	k       int
	release []nodeID
	cn      nodeID
	warN    nodeID
}

type builder struct {
	c *cr.Compiled
	g *graph
	// ids interns every instance the replay touches to a dense instID, in
	// first-touch order; refs and states are indexed by it.
	ids    map[instRef]instID
	refs   []instRef
	states []*symState
	accs   []access
	// collectWar records a warOb for every war event the prune info skips.
	collectWar bool
	warObs     []warOb
	// opsOf mirrors each shard's sh.ops for the current iteration: the
	// events the shard merges into its iteration-completion event. Their
	// union over all iterations feeds the loop-end phase edge (shardDone).
	opsOf  [][]nodeID
	allOps []nodeID
	// prune is consulted at exactly the points the executor consults it
	// (spmd shard.go / plan.go), so the graph is the precise happens-before
	// relation of the pruned schedule — not an approximation by edge
	// deletion, which would leave the structural done->loopEnd edges of
	// pruned sync in place. Nil builds the conservative schedule.
	prune *cr.PruneInfo
	// agg replays the aggregated executor paths (spmd execPhaseP2P /
	// execPhaseBarrier) instead of the per-copy ones: whole exchange
	// phases issue at their head op, producers emit one merged message per
	// aggregation group (see agg.go). Aggregation never composes with
	// pruning, so agg builders run with prune == nil.
	agg bool
}

// newBuilder sizes the graph from the compiled plan instead of growing it
// from zero: per unrolled iteration a node per task, up to three per copy
// pair and two barriers per copy; an access per launch argument and two per
// pair. Edges follow the replayed dependence state, so theirs is a hint:
// four per node, where the evaluation applications have 3 to 9.
func newBuilder(c *cr.Compiled) *builder {
	colors := len(c.Domain)
	nodes, accs := 4, 2*len(c.UsedParts)*colors
	for _, cp := range c.InitCopies {
		nodes, accs = nodes+len(cp.Pairs), accs+2*len(cp.Pairs)
	}
	for _, op := range c.Body {
		if l := op.Launch; l != nil {
			nodes, accs = nodes+2*colors, accs+2*colors*len(l.Args)
		} else if cp := op.Copy; cp != nil {
			nodes, accs = nodes+6*len(cp.Pairs)+4, accs+4*len(cp.Pairs)
		}
	}
	return &builder{
		c:     c,
		g:     &graph{nodes: make([]node, 0, nodes), edges: make([]edge, 0, 4*nodes)},
		ids:   make(map[instRef]instID, len(c.UsedParts)*colors),
		accs:  make([]access, 0, accs),
		opsOf: make([][]nodeID, c.Opts.NumShards),
		prune: c.Prune,
	}
}

func newPrunedBuilder(c *cr.Compiled, info *cr.PruneInfo) *builder {
	b := newBuilder(c)
	b.prune = info
	return b
}

func (b *builder) id(r instRef) instID {
	id, ok := b.ids[r]
	if !ok {
		id = instID(len(b.refs))
		b.ids[r] = id
		b.refs = append(b.refs, r)
		b.states = append(b.states, &symState{})
	}
	return id
}

func (b *builder) state(r instRef) *symState { return b.states[b.id(r)] }

func (b *builder) record(n nodeID, inst instRef, fields []region.FieldID, space geometry.IndexSpace, write bool) {
	if len(fields) == 0 {
		return
	}
	b.accs = append(b.accs, access{n: n, inst: b.id(inst), fields: fields, space: space, write: write})
}

func (b *builder) shardOf(col geometry.Point) int32 {
	return int32(b.c.ShardOf[col])
}

// build symbolically replays the SPMD execution of the compiled loop:
// initialization, the unrolled loop body (two iterations when the trip
// allows), and finalization, mirroring spmd.(*shard) op for op.
func (b *builder) build() (*graph, []access) {
	c := b.c
	iters := 2
	if c.Loop.Trip < 2 {
		iters = 1
	}
	b.g.iters = iters

	// Initialization: every used partition's every instance is populated
	// from the parent region on the control thread; the control thread
	// waits for the whole phase before the hoisted loop-invariant copies,
	// and for each of those before spawning the shards. Model the
	// population as one node writing every instance.
	init := b.g.add(node{kind: kInit, iter: -1, body: -1, sub: -1, copyID: -1, shard: -1})
	for _, part := range c.UsedParts {
		fields := c.InstFields[part]
		for _, col := range c.Domain {
			if b.prune.SkipInit(part, c.ColorIdx[col]) {
				// Dead initialization: the instance is never populated, so
				// the init node does not write it — every read must instead
				// be covered by a later compiler-inserted overwrite (the
				// coverage analysis in prune.go licenses exactly that).
				continue
			}
			b.record(init, instRef{part: part, color: col}, fields, part.Sub(col).IndexSpace(), true)
		}
	}
	prev := []nodeID{init}
	for _, cp := range c.InitCopies {
		var pairNodes []nodeID
		for k, pr := range cp.Pairs {
			n := b.g.add(node{kind: kInitCopy, iter: -1, body: -1, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: -1})
			for _, p := range prev {
				b.g.edge(p, n)
			}
			b.record(n, instRef{part: cp.Src, color: pr.Src}, cp.Fields, pr.Overlap, false)
			b.record(n, instRef{part: cp.Dst, color: pr.Dst}, cp.Fields, pr.Overlap, true)
			pairNodes = append(pairNodes, n)
		}
		if len(pairNodes) > 0 {
			prev = pairNodes
		}
	}
	loopStart := b.g.add(node{kind: kLoopStart, iter: -1, body: -1, sub: -1, copyID: -1, shard: -1})
	for _, p := range prev {
		b.g.edge(p, loopStart)
	}
	// Every instance (and temp) starts valid after the spawn point.
	seed := func(s *symState) {
		if len(s.lastWrite) == 0 && len(s.readers) == 0 {
			s.lastWrite = []nodeID{loopStart}
		}
	}

	for iter := 0; iter < iters; iter++ {
		for s := range b.opsOf {
			b.opsOf[s] = b.opsOf[s][:0]
		}
		for bi, op := range c.Body {
			switch {
			case op.Set != nil:
				// Scalar statements touch no region data.
			case op.Launch != nil:
				b.doLaunch(int32(bi), op.Launch, int32(iter), seed)
			case op.Copy != nil:
				switch {
				case b.agg:
					// Aggregated lowering: the whole exchange phase issues at
					// its head op; the remaining phase ops are skipped exactly
					// as the executor skips them. A negative PhaseOf entry
					// (corrupted tables) skips the op; CheckAggTables reports
					// the corruption.
					if phIdx := c.Spec.PhaseOf[bi]; phIdx >= 0 && c.Spec.Phases[phIdx].Start == bi {
						if c.Opts.Sync == cr.BarrierSync {
							b.doPhaseBarrierAgg(phIdx, int32(iter), seed)
						} else {
							b.doPhaseP2PAgg(phIdx, int32(iter), seed)
						}
					}
				case c.Opts.Sync == cr.BarrierSync:
					b.doCopyBarrier(int32(bi), op.Copy, int32(iter), seed)
				default:
					b.doCopyP2P(int32(bi), op.Copy, int32(iter), seed)
				}
			}
		}
		for _, ops := range b.opsOf {
			b.allOps = append(b.allOps, ops...)
		}
	}

	// Finalization: the control thread waits for every shard's completion
	// merge (which carries exactly the events the shards put in sh.ops),
	// then reads the disjoint written partitions' instances back.
	loopEnd := b.g.add(node{kind: kLoopEnd, iter: int32(iters), body: -1, sub: -1, copyID: -1, shard: -1})
	for _, n := range b.allOps {
		b.g.edge(n, loopEnd)
	}
	b.g.edge(loopStart, loopEnd)
	final := b.g.add(node{kind: kFinal, iter: int32(iters), body: 0, sub: -1, copyID: -1, shard: -1})
	b.g.edge(loopEnd, final)
	for _, part := range c.WrittenDisjoint {
		fields := c.InstFields[part]
		for _, col := range c.Domain {
			b.record(final, instRef{part: part, color: col}, fields, part.Sub(col).IndexSpace(), false)
		}
	}
	return b.g, b.accs
}

// doLaunch adds one node per task of the index launch, with the executor's
// precondition edges from the owning shard's instance table, and updates
// the table exactly as spmd.(*shard).execLaunch does.
func (b *builder) doLaunch(bi int32, l *ir.Launch, iter int32, seed func(*symState)) {
	for _, col := range b.c.Domain {
		sh := b.shardOf(col)
		t := b.g.add(node{kind: kTask, iter: iter, body: bi, sub: 0, copyID: -1, color: col, shard: sh})
		// Gather all precondition edges before applying any table update,
		// exactly like the executor: two args on the same instance (a task
		// reading one field and writing another of the same partition) must
		// not see each other's update.
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			switch param.Priv {
			case ir.PrivRead:
				s := b.state(instRef{part: a.Part, color: col})
				seed(s)
				b.edgesFrom(s.lastWrite, t)
			case ir.PrivReadWrite:
				s := b.state(instRef{part: a.Part, color: col})
				seed(s)
				b.edgesFrom(s.lastWrite, t)
				b.edgesFrom(s.readers, t)
			case ir.PrivReduce:
				s := b.state(instRef{l: l, arg: ai, color: col})
				seed(s)
				b.edgesFrom(s.lastWrite, t)
				b.edgesFrom(s.readers, t)
			}
		}
		for ai, a := range l.Args {
			param := l.Task.Params[ai]
			switch param.Priv {
			case ir.PrivRead:
				s := b.state(instRef{part: a.Part, color: col})
				s.readers = append(s.readers, t)
				b.record(t, instRef{part: a.Part, color: col}, param.Fields, a.Part.Sub(col).IndexSpace(), false)
			case ir.PrivReadWrite:
				s := b.state(instRef{part: a.Part, color: col})
				s.lastWrite = []nodeID{t}
				s.readers = s.readers[:0]
				b.record(t, instRef{part: a.Part, color: col}, param.Fields, a.Part.Sub(col).IndexSpace(), true)
			case ir.PrivReduce:
				s := b.state(instRef{l: l, arg: ai, color: col})
				s.lastWrite = []nodeID{t}
				s.readers = s.readers[:0]
				// The contribution lands in the task's private temporary
				// (re-initialized each iteration), not the instance.
				b.record(t, instRef{l: l, arg: ai, color: col}, param.Fields, a.Part.Sub(col).IndexSpace(), true)
			}
		}
		b.opsOf[sh] = append(b.opsOf[sh], t)
	}
}

func (b *builder) edgesFrom(from []nodeID, to nodeID) {
	for _, f := range from {
		b.g.edge(f, to)
	}
}

// groups returns the contiguous same-destination runs of a copy's pairs —
// the consumer groups of the executor's copy schedule.
func groups(cp *cr.CopyOp) [][2]int {
	var out [][2]int
	i := 0
	for i < len(cp.Pairs) {
		j := i
		for j < len(cp.Pairs) && cp.Pairs[j].Dst == cp.Pairs[i].Dst {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// doCopyP2P mirrors spmd.(*shard).execCopyP2P (whose consumer half is
// spmd.(*shard).consume): per destination group, the consumer computes the write-after-read release and connects it to each
// pair's war event, then merges the pair done events into the instance's
// lastWrite; per pair, the producer issues the transfer gated on war and
// its source's lastWrite (plus the reduction chain), and connects it to
// done.
func (b *builder) doCopyP2P(bi int32, cp *cr.CopyOp, iter int32, seed func(*symState)) {
	g := b.g
	warN := make([]nodeID, len(cp.Pairs))
	doneN := make([]nodeID, len(cp.Pairs))
	for i := range warN {
		warN[i], doneN[i] = -1, -1
	}
	var obIdx map[int]int
	for _, gr := range groups(cp) {
		start, end := gr[0], gr[1]
		dstCol := cp.Pairs[start].Dst
		consShard := b.shardOf(dstCol)
		s := b.state(instRef{part: cp.Dst, color: dstCol})
		seed(s)
		release := append(append([]nodeID(nil), s.readers...), s.lastWrite...)
		newWrites := append([]nodeID(nil), s.lastWrite...)
		for k := start; k < end; k++ {
			if !b.prune.SkipWar(cp.ID, k) {
				warN[k] = g.add(node{kind: kWar, iter: iter, body: bi, sub: int32(k), copyID: int32(cp.ID), color: dstCol, shard: consShard})
				for _, r := range release {
					g.ledge(r, warN[k], EdgeID{Class: EdgeWAR, Copy: cp.ID, Pair: k})
				}
			}
			if b.collectWar {
				if obIdx == nil {
					obIdx = make(map[int]int)
				}
				obIdx[k] = len(b.warObs)
				b.warObs = append(b.warObs, warOb{copyID: cp.ID, k: k, release: release, cn: -1, warN: warN[k]})
			}
			if !b.prune.SkipDone(cp.ID, k) {
				doneN[k] = g.add(node{kind: kDone, iter: iter, body: bi, sub: int32(k), copyID: int32(cp.ID), color: dstCol, shard: consShard})
				newWrites = append(newWrites, doneN[k])
				b.opsOf[consShard] = append(b.opsOf[consShard], doneN[k])
			}
		}
		s.lastWrite = newWrites
		s.readers = s.readers[:0]
	}
	for _, gr := range groups(cp) {
		start, end := gr[0], gr[1]
		for k := start; k < end; k++ {
			pr := cp.Pairs[k]
			prodShard := b.shardOf(pr.Src)
			cn := g.add(node{kind: kCopy, iter: iter, body: bi, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: prodShard})
			if warN[k] >= 0 {
				g.edge(warN[k], cn)
			}
			if i, ok := obIdx[k]; ok {
				b.warObs[i].cn = cn
			}
			if cp.Reduce == region.ReduceNone {
				s := b.state(instRef{part: cp.Src, color: pr.Src})
				seed(s)
				b.edgesFrom(s.lastWrite, cn)
				s.readers = append(s.readers, cn)
				b.record(cn, instRef{part: cp.Src, color: pr.Src}, cp.Fields, pr.Overlap, false)
			} else {
				ts := b.state(instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src})
				seed(ts)
				b.edgesFrom(ts.lastWrite, cn)
				if k > start && !b.prune.SkipChain(cp.ID, k) {
					if doneN[k-1] < 0 {
						// The predecessor's done sync is pruned but the chain
						// still waits on it: the event exists in the executor
						// yet nothing ever triggers it. Model the hang with an
						// orphan node for the liveness check to flag.
						doneN[k-1] = g.add(node{kind: kDone, iter: iter, body: bi, sub: int32(k - 1), copyID: int32(cp.ID), color: cp.Pairs[k-1].Dst, shard: b.shardOf(cp.Pairs[k-1].Dst)})
					}
					g.ledge(doneN[k-1], cn, EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
				}
				ts.readers = append(ts.readers, cn)
				b.record(cn, instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src}, cp.Fields, pr.Overlap, false)
			}
			if doneN[k] >= 0 {
				g.ledge(cn, doneN[k], EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: k})
				b.opsOf[prodShard] = append(b.opsOf[prodShard], doneN[k])
			} else {
				// Done pruned: the producer merges the copy's own completion
				// into its iteration ops instead (spmd execCopyP2P does the
				// same), so loop-end quiescence still covers the transfer.
				b.opsOf[prodShard] = append(b.opsOf[prodShard], cn)
			}
			b.record(cn, instRef{part: cp.Dst, color: pr.Dst}, cp.Fields, pr.Overlap, true)
		}
	}
}

// doCopyBarrier mirrors spmd.(*shard).execCopyBarrier: every shard arrives
// at the first barrier with everything it issued so far this iteration
// (consumers additionally with their destination state), the copies run
// between the barriers, and every destination instance becomes valid after
// the second barrier. Reduction chains still use the shared per-pair done
// events for deterministic fold order.
func (b *builder) doCopyBarrier(bi int32, cp *cr.CopyOp, iter int32, seed func(*symState)) {
	g := b.g
	b1 := g.add(node{kind: kBarrier, iter: iter, body: bi, sub: 0, copyID: int32(cp.ID), shard: -1})
	b2 := g.add(node{kind: kBarrier, iter: iter, body: bi, sub: 1, copyID: int32(cp.ID), shard: -1})
	ns := b.c.Opts.NumShards
	g.arrivals = append(g.arrivals,
		barrierArrival{b: b1, copyID: int32(cp.ID), iter: iter, phase: 0, got: ns, want: ns},
		barrierArrival{b: b2, copyID: int32(cp.ID), iter: iter, phase: 1, got: ns, want: ns})
	arrive1 := EdgeID{Class: EdgeBarrier, Copy: cp.ID, Pair: 0}
	arrive2 := EdgeID{Class: EdgeBarrier, Copy: cp.ID, Pair: 1}
	for _, ops := range b.opsOf {
		for _, n := range ops {
			g.ledge(n, b1, arrive1)
		}
	}
	grs := groups(cp)
	for _, gr := range grs {
		dstCol := cp.Pairs[gr[0]].Dst
		s := b.state(instRef{part: cp.Dst, color: dstCol})
		seed(s)
		for _, n := range s.lastWrite {
			g.ledge(n, b1, arrive1)
		}
		for _, n := range s.readers {
			g.ledge(n, b1, arrive1)
		}
	}
	doneN := make([]nodeID, len(cp.Pairs))
	for i := range doneN {
		doneN[i] = -1
	}
	isReduce := cp.Reduce != region.ReduceNone
	for _, gr := range grs {
		start, end := gr[0], gr[1]
		for k := start; k < end; k++ {
			pr := cp.Pairs[k]
			prodShard := b.shardOf(pr.Src)
			cn := g.add(node{kind: kCopy, iter: iter, body: bi, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: prodShard})
			g.edge(b1, cn)
			if !isReduce {
				s := b.state(instRef{part: cp.Src, color: pr.Src})
				seed(s)
				b.edgesFrom(s.lastWrite, cn)
				s.readers = append(s.readers, cn)
				b.record(cn, instRef{part: cp.Src, color: pr.Src}, cp.Fields, pr.Overlap, false)
			} else {
				ts := b.state(instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src})
				seed(ts)
				b.edgesFrom(ts.lastWrite, cn)
				if k > start && !b.prune.SkipChain(cp.ID, k) {
					if doneN[k-1] < 0 {
						// Pruned done with a live chain waiting on it: orphan
						// node, flagged as never-triggered by the liveness
						// pass (see doCopyP2P).
						doneN[k-1] = g.add(node{kind: kDone, iter: iter, body: bi, sub: int32(k - 1), copyID: int32(cp.ID), color: cp.Pairs[k-1].Dst, shard: b.shardOf(cp.Pairs[k-1].Src)})
					}
					g.ledge(doneN[k-1], cn, EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: k})
				}
				if !b.prune.SkipDone(cp.ID, k) {
					doneN[k] = g.add(node{kind: kDone, iter: iter, body: bi, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: prodShard})
					g.ledge(cn, doneN[k], EdgeID{Class: EdgeDone, Copy: cp.ID, Pair: k})
				}
				ts.readers = append(ts.readers, cn)
				b.record(cn, instRef{l: cp.SrcLaunch, arg: cp.SrcArg, color: pr.Src}, cp.Fields, pr.Overlap, false)
			}
			g.ledge(cn, b2, arrive2)
			b.record(cn, instRef{part: cp.Dst, color: pr.Dst}, cp.Fields, pr.Overlap, true)
		}
	}
	g.ledge(b1, b2, arrive2)
	for _, gr := range grs {
		dstCol := cp.Pairs[gr[0]].Dst
		s := b.state(instRef{part: cp.Dst, color: dstCol})
		s.lastWrite = append(s.lastWrite, b2)
		s.readers = s.readers[:0]
	}
	for sh := range b.opsOf {
		b.opsOf[sh] = append(b.opsOf[sh], b2)
	}
}
