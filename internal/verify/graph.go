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

// edge is one happens-before edge in 20 bytes, its copy and pair narrowed.
type edge struct {
	from, to   nodeID
	class      EdgeClass
	copy, pair int32
}

func (e *edge) label() EdgeID { return EdgeID{Class: e.class, Copy: int(e.copy), Pair: int(e.pair)} }

// chunks is an append-only table kept in parts: growing it allocates a part
// and never copies what it holds. parts[:0] keeps them for the next fill.
type chunks[T any] struct {
	parts [][]T // every part but the last is full
	n     int
	size  int // expected length over a few; a part holds it within [64, 4096]
}

func (c *chunks[T]) push(x T) {
	k := len(c.parts) - 1
	if k < 0 || len(c.parts[k]) == cap(c.parts[k]) {
		if k++; k == cap(c.parts) || cap(c.parts[:k+1][k]) == 0 { // no part kept
			c.parts = append(c.parts, make([]T, 0, min(max(c.size, 64), 1<<12)))
		}
		c.parts = c.parts[:k+1]
		c.parts[k] = c.parts[k][:0]
	}
	c.parts[k] = append(c.parts[k], x)
	c.n++
}

// each visits the entries in push order.
func (c *chunks[T]) each(visit func(*T)) {
	for _, part := range c.parts {
		for i := range part {
			visit(&part[i])
		}
	}
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
	edges    chunks[edge]
	iters    int
	arrivals []barrierArrival
	succ     successors // every edge, tabulated once the replay is complete
}

func (g *graph) add(n node) nodeID {
	g.nodes = append(g.nodes, n)
	return nodeID(len(g.nodes) - 1)
}

func (g *graph) edge(from, to nodeID) {
	g.edges.push(edge{from: from, to: to})
}

func (g *graph) ledge(from, to nodeID, id EdgeID) {
	g.edges.push(edge{from: from, to: to, class: id.Class, copy: int32(id.Copy), pair: int32(id.Pair)})
}

// labels returns the labels of the graph's sync edges of one class.
func (g *graph) labels(class EdgeClass) map[EdgeID]bool {
	out := make(map[EdgeID]bool)
	g.edges.each(func(e *edge) {
		if e.class == class {
			out[e.label()] = true
		}
	})
	return out
}

// successors is a successor table in compressed sparse row form: node u's
// successors are to[off[u]:off[u+1]], in edge insertion order.
type successors struct {
	off []int32
	to  []nodeID
}

func (s *successors) of(u nodeID) []nodeID { return s.to[s.off[u]:s.off[u+1]] }

// fill tabulates g's edges into s's buffers by counting sort, leaving out
// the edges whose label is dropped and putting extra after each node's own.
func (s *successors) fill(g *graph, dropped map[EdgeID]bool, extra []edge) *successors {
	walk := func(visit func(e *edge)) {
		g.edges.each(func(e *edge) {
			if len(dropped) == 0 || e.class == edgeStruct || !dropped[e.label()] {
				visit(e)
			}
		})
		for i := range extra {
			visit(&extra[i])
		}
	}
	n := len(g.nodes)
	s.off = append(s.off[:0], make([]int32, n+1)...)
	walk(func(e *edge) { s.off[e.from+1]++ })
	for u := 1; u <= n; u++ {
		s.off[u] += s.off[u-1]
	}
	// off[u] is u's write cursor; it ends at u's end, the next node's start.
	s.to = append(s.to[:0], make([]nodeID, s.off[n])...)
	walk(func(e *edge) { s.to[s.off[e.from]], s.off[e.from] = e.to, s.off[e.from]+1 })
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0
	return s
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

// crossShard: x and y run on two distinct shards (control-thread ops, none).
func (g *graph) crossShard(x, y nodeID) bool {
	return min(g.nodes[x].shard, g.nodes[y].shard) >= 0 && g.nodes[x].shard != g.nodes[y].shard
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
// nil) or a reduce temporary (launch+arg). The builder numbers each one with
// a dense id (instID) the first time it is touched.
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
	ix *index
	c  *cr.Compiled
	g  *graph
	// ids numbers the instances the replay touches in first-touch order, by
	// instance key (-1 until touched), refs is its inverse, and states holds
	// the dependence state by instance key.
	ids    []instID
	refs   []instRef
	states []symState
	accs   []access
	// collectWar records a warOb for every war event the prune info skips.
	collectWar bool
	warObs     []warOb
	// opsOf mirrors each shard's sh.ops for the current iteration: the
	// events the shard merges into its iteration-completion event. Their
	// union over all iterations feeds the loop-end phase edge (shardDone).
	opsOf     [][]nodeID
	allOps    []nodeID
	loopStart nodeID
	// prune is consulted at exactly the points the executor consults it
	// (spmd shard.go / plan.go), so the graph is the precise happens-before
	// relation of the pruned schedule — not an approximation by edge
	// deletion, which would leave the structural done->loopEnd edges of
	// pruned sync in place. Nil builds the conservative schedule.
	prune *cr.PruneInfo
}

// newBuilder readies a replay of ix's plan under prune on the slabs of
// spare, a builder whose replay was discarded, or on fresh ones sized from
// the plan: per unrolled iteration a node per task, up to three per copy
// pair and two barriers per copy; an access per launch argument and two per
// pair; edge parts as long as the node count (3 to 9 edges per node).
func newBuilder(ix *index, prune *cr.PruneInfo, spare *builder) *builder {
	c, b := ix.c, spare
	if b == nil {
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
		b = &builder{
			g:      &graph{nodes: make([]node, 0, nodes), edges: chunks[edge]{size: nodes}},
			ids:    make([]instID, len(ix.spaces)*colors),
			states: make([]symState, len(ix.spaces)*colors),
			accs:   make([]access, 0, accs),
			opsOf:  make([][]nodeID, c.Opts.NumShards),
		}
	}
	b.ix, b.c, b.prune, b.collectWar = ix, c, prune, false
	b.g = &graph{nodes: b.g.nodes[:0], edges: chunks[edge]{parts: b.g.edges.parts[:0], size: b.g.edges.size}, arrivals: b.g.arrivals[:0], succ: b.g.succ}
	b.refs, b.accs, b.warObs, b.allOps = b.refs[:0], b.accs[:0], b.warObs[:0], b.allOps[:0]
	for i := range b.ids {
		b.ids[i] = -1
	}
	for i := range b.states {
		s := &b.states[i]
		s.lastWrite, s.readers = s.lastWrite[:0], s.readers[:0]
	}
	return b
}

func (b *builder) id(key int32) instID {
	if b.ids[key] < 0 {
		b.ids[key] = instID(len(b.refs))
		b.refs = append(b.refs, b.ix.ref(key))
	}
	return b.ids[key]
}

func (b *builder) state(key int32) *symState {
	b.id(key)
	return &b.states[key]
}

// seed makes an untouched instance valid after the spawn point.
func (b *builder) seed(s *symState) {
	if len(s.lastWrite) == 0 && len(s.readers) == 0 {
		s.lastWrite = append(s.lastWrite, b.loopStart)
	}
}

func (b *builder) record(n nodeID, key int32, fields []region.FieldID, space geometry.IndexSpace, write bool) {
	if len(fields) == 0 {
		return
	}
	b.accs = append(b.accs, access{n: n, inst: b.id(key), fields: fields, space: space, write: write})
}

// build symbolically replays the SPMD execution of the compiled loop:
// initialization, the unrolled loop body (two iterations when the trip
// allows), and finalization, mirroring spmd.(*shard) op for op.
func (b *builder) build() {
	c, ix := b.c, b.ix
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
	for p, part := range c.UsedParts {
		fields := c.InstFields[part]
		for ci, col := range c.Domain {
			if b.prune.SkipInit(part, c.ColorIdx[col]) {
				// Dead initialization: the instance is never populated, so
				// the init node does not write it — every read must instead
				// be covered by a later compiler-inserted overwrite (the
				// coverage analysis in prune.go licenses exactly that).
				continue
			}
			b.record(init, ix.key(int32(p), ci), fields, ix.spaces[p][ci], true)
		}
	}
	prev := []nodeID{init}
	for i, cp := range c.InitCopies {
		var pairNodes []nodeID
		for k, pr := range cp.Pairs {
			n := b.g.add(node{kind: kInitCopy, iter: -1, body: -1, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: -1})
			for _, p := range prev {
				b.g.edge(p, n)
			}
			b.record(n, ix.inits[i][k][0], cp.Fields, pr.Overlap, false)
			b.record(n, ix.inits[i][k][1], cp.Fields, pr.Overlap, true)
			pairNodes = append(pairNodes, n)
		}
		if len(pairNodes) > 0 {
			prev = pairNodes
		}
	}
	b.loopStart = b.g.add(node{kind: kLoopStart, iter: -1, body: -1, sub: -1, copyID: -1, shard: -1})
	for _, p := range prev {
		b.g.edge(p, b.loopStart)
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
				b.doLaunch(int32(bi), op.Launch, int32(iter))
			case op.Copy != nil:
				// The exchange step lists starting here cover the copy alone,
				// a whole aggregated exchange phase, or — at a phase's later
				// ops — nothing, exactly as for the executor.
				if x := b.exchangeAt(bi, int32(iter)); x.end == bi {
					continue
				} else if c.Opts.Sync == cr.BarrierSync {
					b.doExchangeBarrier(x)
				} else {
					b.doExchangeP2P(x)
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
	b.g.edge(b.loopStart, loopEnd)
	final := b.g.add(node{kind: kFinal, iter: int32(iters), body: 0, sub: -1, copyID: -1, shard: -1})
	b.g.edge(loopEnd, final)
	for i, part := range c.WrittenDisjoint {
		fields, slot := c.InstFields[part], ix.finals[i]
		for ci := range c.Domain {
			b.record(final, ix.key(slot, ci), fields, ix.spaces[slot][ci], false)
		}
	}
	b.g.succ.fill(b.g, nil, nil)
}

// doLaunch adds one node per task of the index launch, with the executor's
// precondition edges from the owning shard's instance table, and updates
// the table exactly as spmd.(*shard).execLaunch does. A reduce argument's
// contribution lands in the task's private temporary, not the partition.
func (b *builder) doLaunch(bi int32, l *ir.Launch, iter int32) {
	slots := b.ix.args[bi]
	for ci, col := range b.c.Domain {
		sh := b.ix.shardOf[ci]
		t := b.g.add(node{kind: kTask, iter: iter, body: bi, sub: 0, copyID: -1, color: col, shard: sh})
		// Gather all precondition edges before applying any table update,
		// exactly like the executor: two args on the same instance (a task
		// reading one field and writing another of the same partition) must
		// not see each other's update.
		for ai := range l.Args {
			switch key := b.ix.key(slots[ai], ci); l.Task.Params[ai].Priv {
			case ir.PrivRead:
				s := b.state(key)
				b.seed(s)
				b.edgesFrom(s.lastWrite, t)
			case ir.PrivReadWrite, ir.PrivReduce:
				s := b.state(key)
				b.seed(s)
				b.edgesFrom(s.lastWrite, t)
				b.edgesFrom(s.readers, t)
			}
		}
		for ai := range l.Args {
			param, slot := &l.Task.Params[ai], slots[ai]
			switch key := b.ix.key(slot, ci); param.Priv {
			case ir.PrivRead:
				s := b.state(key)
				s.readers = append(s.readers, t)
				b.record(t, key, param.Fields, b.ix.spaces[slot][ci], false)
			case ir.PrivReadWrite, ir.PrivReduce:
				s := b.state(key)
				s.lastWrite = append(s.lastWrite[:0], t)
				s.readers = s.readers[:0]
				b.record(t, key, param.Fields, b.ix.spaces[slot][ci], true)
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

// shardStep is one entry of some shard's exchange step list.
type shardStep struct {
	shard int32
	*cr.ExchangeStep
}

// exchange is the replay of the exchange step lists that start at one body
// op: every shard's cr.ExchangeSteps — the lists the executor resolves and
// runs, and the builder's only source of consumer groups and producer
// members — gathered into replay order once per plan (newExchange) and
// replayed every unrolled iteration of every build.
type exchange struct {
	start, end int // the body ops the lists cover
	// cons are the consume steps in (op, group) order. prods are the produce
	// steps shard by shard, each shard's in its issue order — except that an
	// unaggregated copy's are put in pair order, the numbering the witness
	// goldens of the unaggregated graph were recorded with.
	cons, prods []shardStep
	// war and done hold the current iteration's sync nodes of every covered
	// pair, by op and pair; -1 where the event has no node.
	iter      int32
	war, done [][]nodeID
}

// exchangeAt returns the exchange starting at body index op, readied for
// one unrolled iteration.
func (b *builder) exchangeAt(op int, iter int32) *exchange {
	x := b.ix.exchanges[op]
	x.iter = iter
	for i := range x.war {
		for k := range x.war[i] {
			x.war[i][k], x.done[i][k] = -1, -1
		}
	}
	return x
}

// doneOf returns the done node of pair k of body op op, adding it on first
// use. Asked for by a fold-chain link whose predecessor's done sync is
// pruned (or that no step carries), that leaves an orphan — the event exists
// in the executor yet nothing ever triggers it — for the liveness check to
// flag. The node's shard is the event's owner: the pair's consumer under
// point-to-point sync, its producer under barriers.
func (b *builder) doneOf(x *exchange, op, k int32) nodeID {
	d := &x.done[int(op)-x.start][k]
	if *d < 0 {
		cp, owner := b.c.Body[op].Copy, b.ix.body[op][k][1]
		if b.c.Opts.Sync == cr.BarrierSync {
			owner = b.ix.body[op][k][0]
		}
		*d = b.g.add(node{kind: kDone, iter: x.iter, body: op, sub: k, copyID: int32(cp.ID), color: cp.Pairs[k].Dst, shard: b.ix.shard(owner)})
	}
	return *d
}

// produce adds one produce step's transfer as a linear cluster of per-member
// copy nodes m_1 -> ... -> m_n in member order (the transfer body's write
// order), each recording its own source read and destination write; a plain
// pair copy is a cluster of one. A member's source is the source
// partition's subregion, or the reducing launch's temporary. Every
// precondition enters the head — the lowering's sync (wired by the caller's
// sync), then each member's source validity and fold-chain link — and the
// single completion is the tail, registered as a reader of every member's
// source: nothing transfers before all preconditions, everything completes
// together, and per-member nodes keep conflict orientation and witnesses
// exact. The tail is -1 for a step without members.
func (b *builder) produce(x *exchange, st *shardStep, sync func(head nodeID)) (tail nodeID) {
	g, c := b.g, b.c
	head, tail := nodeID(-1), nodeID(-1)
	for _, m := range st.Members {
		cp, keys := c.Body[m.Op].Copy, b.ix.body[m.Op][m.Pair]
		pr := cp.Pairs[m.Pair]
		mn := g.add(node{kind: kCopy, iter: x.iter, body: m.Op, sub: m.Pair, copyID: int32(cp.ID), color: pr.Dst, shard: st.shard})
		if tail >= 0 {
			g.edge(tail, mn)
		} else {
			head = mn
		}
		tail = mn
		b.record(mn, keys[0], cp.Fields, pr.Overlap, false)
		b.record(mn, keys[1], cp.Fields, pr.Overlap, true)
	}
	if head < 0 {
		return tail
	}
	sync(head)
	for _, m := range st.Members {
		cp := c.Body[m.Op].Copy
		s := b.state(b.ix.body[m.Op][m.Pair][0])
		b.seed(s)
		b.edgesFrom(s.lastWrite, head)
		s.readers = append(s.readers, tail)
		if m.Chain && !b.prune.SkipChain(cp.ID, int(m.Pair)) {
			g.ledge(b.doneOf(x, m.Op, m.Pair-1), head, EdgeID{Class: EdgeChain, Copy: cp.ID, Pair: int(m.Pair)})
		}
	}
	return tail
}

// doExchangeP2P replays spmd.(*shard).execExchangeP2P. Per consume step the
// destination's owner computes the write-after-read release and connects it
// to each pair's war event, then merges the pair done events into the
// instance's lastWrite; per produce step the transfer is gated on every
// member's war, source validity and chain link, and its completion triggers
// every member's done.
func (b *builder) doExchangeP2P(x *exchange) {
	g, c := b.g, b.c
	var obIdx map[[2]int32]int
	for i := range x.cons {
		st := &x.cons[i]
		cp, dst := c.Body[st.Op].Copy, b.ix.body[st.Op][st.GroupStart][1]
		dstCol := cp.Pairs[st.GroupStart].Dst
		s := b.state(dst)
		b.seed(s)
		release := append(append([]nodeID(nil), s.readers...), s.lastWrite...)
		for k := st.GroupStart; k < st.GroupEnd; k++ {
			w := &x.war[int(st.Op)-x.start][k]
			if !b.prune.SkipWar(cp.ID, int(k)) {
				*w = g.add(node{kind: kWar, iter: x.iter, body: st.Op, sub: k, copyID: int32(cp.ID), color: dstCol, shard: b.ix.shard(dst)})
				for _, r := range release {
					g.ledge(r, *w, EdgeID{Class: EdgeWAR, Copy: cp.ID, Pair: int(k)})
				}
			}
			if b.collectWar {
				if obIdx == nil {
					obIdx = make(map[[2]int32]int)
				}
				obIdx[[2]int32{st.Op, k}] = len(b.warObs)
				b.warObs = append(b.warObs, warOb{copyID: cp.ID, k: int(k), release: release, cn: -1, warN: *w})
			}
			if !b.prune.SkipDone(cp.ID, int(k)) {
				d := b.doneOf(x, st.Op, k)
				s.lastWrite = append(s.lastWrite, d)
				b.opsOf[st.shard] = append(b.opsOf[st.shard], d)
			}
		}
		s.readers = s.readers[:0]
	}
	for i := range x.prods {
		st := &x.prods[i]
		tail := b.produce(x, st, func(head nodeID) {
			for _, m := range st.Members {
				if w := x.war[int(m.Op)-x.start][m.Pair]; w >= 0 {
					g.edge(w, head)
				}
				if i, ok := obIdx[[2]int32{m.Op, m.Pair}]; ok {
					b.warObs[i].cn = head
				}
			}
		})
		for _, m := range st.Members {
			done := tail
			if id := c.Body[m.Op].Copy.ID; !b.prune.SkipDone(id, int(m.Pair)) {
				done = b.doneOf(x, m.Op, m.Pair)
				g.ledge(tail, done, EdgeID{Class: EdgeDone, Copy: id, Pair: int(m.Pair)})
			}
			// With the done pruned the producer merges the transfer's own
			// completion into its iteration ops instead (as the executor
			// does), so loop-end quiescence still covers the transfer.
			b.opsOf[st.shard] = append(b.opsOf[st.shard], done)
		}
	}
}

// doExchangeBarrier replays spmd.(*shard).execExchangeBarrier: every shard
// arrives at each covered op's entry barrier with everything it issued so
// far this iteration (consumers additionally with their destination state),
// the transfers run between the barriers — gated on every covered op's
// entry barrier — and every destination instance becomes valid after its
// op's exit barrier, which waits all the transfers. Reduction chains still
// use the shared per-pair done events for deterministic fold order: only
// reduce pairs have done events here, and only the chain waits on them.
func (b *builder) doExchangeBarrier(x *exchange) {
	g, c := b.g, b.c
	// dsts visits the state of every destination instance of op.
	dsts := func(op int, visit func(s *symState)) {
		for i := range x.cons {
			if st := &x.cons[i]; int(st.Op) == op {
				visit(b.state(b.ix.body[op][st.GroupStart][1]))
			}
		}
	}
	barrier := func(op, phase int) nodeID {
		id, ns := int32(c.Body[op].Copy.ID), c.Opts.NumShards
		n := g.add(node{kind: kBarrier, iter: x.iter, body: int32(op), sub: int32(phase), copyID: id, shard: -1})
		g.arrivals = append(g.arrivals, barrierArrival{b: n, copyID: id, iter: x.iter, phase: int32(phase), got: ns, want: ns})
		return n
	}
	kept := func(op, k int32) bool {
		cp := c.Body[op].Copy
		return cp.Reduce != region.ReduceNone && !b.prune.SkipDone(cp.ID, int(k))
	}
	// Node numbering is pinned by the witness goldens of both graphs: the
	// unaggregated one numbers a copy's exit barrier right after its entry
	// barrier and its done nodes as their pairs issue; the aggregated one
	// numbers every reduce pair's done node before the transfers and the
	// exit barriers after them.
	merged := c.Opts.Agg
	b1s, b2s := make([]nodeID, x.end-x.start), make([]nodeID, x.end-x.start)
	for i := range b1s {
		op := x.start + i
		b1 := barrier(op, 0)
		if b1s[i] = b1; !merged {
			b2s[i] = barrier(op, 1)
		}
		arrive1 := EdgeID{Class: EdgeBarrier, Copy: c.Body[op].Copy.ID, Pair: 0}
		for _, ops := range b.opsOf {
			for _, n := range ops {
				g.ledge(n, b1, arrive1)
			}
		}
		dsts(op, func(s *symState) {
			b.seed(s)
			for _, n := range s.lastWrite {
				g.ledge(n, b1, arrive1)
			}
			for _, n := range s.readers {
				g.ledge(n, b1, arrive1)
			}
		})
	}
	if merged {
		for op := x.start; op < x.end; op++ {
			for k := range c.Body[op].Copy.Pairs {
				if kept(int32(op), int32(k)) {
					b.doneOf(x, int32(op), int32(k))
				}
			}
		}
	}
	var tails []nodeID
	for i := range x.prods {
		st := &x.prods[i]
		tail := b.produce(x, st, func(head nodeID) {
			for _, b1 := range b1s {
				g.edge(b1, head)
			}
		})
		if tail < 0 {
			continue
		}
		for _, m := range st.Members {
			if kept(m.Op, m.Pair) {
				g.ledge(tail, b.doneOf(x, m.Op, m.Pair), EdgeID{Class: EdgeDone, Copy: c.Body[m.Op].Copy.ID, Pair: int(m.Pair)})
			}
		}
		tails = append(tails, tail)
	}
	for i, b2 := range b2s {
		op := x.start + i
		if merged {
			b2 = barrier(op, 1)
		}
		arrive2 := EdgeID{Class: EdgeBarrier, Copy: c.Body[op].Copy.ID, Pair: 1}
		for _, t := range tails {
			g.ledge(t, b2, arrive2)
		}
		g.ledge(b1s[i], b2, arrive2)
		dsts(op, func(s *symState) {
			s.lastWrite = append(s.lastWrite, b2)
			s.readers = s.readers[:0]
		})
		for sh := range b.opsOf {
			b.opsOf[sh] = append(b.opsOf[sh], b2)
		}
	}
}
