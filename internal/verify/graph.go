package verify

import (
	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// EdgeClass and EdgeID name the deletable synchronization edges; the
// wiring that adds them (cr/wire.go) defines them.
type (
	EdgeClass = cr.EdgeClass
	EdgeID    = cr.EdgeID
)

const (
	edgeStruct  = cr.EdgeStruct
	EdgeWAR     = cr.EdgeWAR
	EdgeDone    = cr.EdgeDone
	EdgeChain   = cr.EdgeChain
	EdgeBarrier = cr.EdgeBarrier
)

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

// barrierArrival records one global barrier's arrivals (got, one per shard
// the wiring arrives for) against its participant count (want). The
// liveness mutation harness perturbs got to model a shard skipping its
// arrival (the barrier never triggers).
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

// warOb is one war event's ordering obligation: every node of the
// consumer's release (a merge) must happen-before the head cn of the
// transfer carrying the pair, or skipping the war reorders a
// write-after-read. Collected (under collectWar) for every p2p war slot,
// pruned (warN == -1: it must hold through the remaining graph) or kept
// (so the proposal pass can ask whether it survives removing this event).
type warOb struct {
	copyID  int
	op, k   int32
	release nodeID
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
	refs   []int32
	states []cr.InstState[nodeID]
	accs   []access
	// collectWar records a warOb for every war event the prune info skips.
	collectWar bool
	warObs     []warOb
	// opsOf holds each shard's sh.ops of the current iteration: the events
	// the shard merges into its iteration-completion event. Their union
	// over all iterations feeds the loop-end phase edge (shardDone).
	opsOf     [][]nodeID
	allOps    []nodeID
	loopStart nodeID
	// x is the exchange being wired, head and tail the transfer Begin added
	// (head: the task being wired); steps, srcs and args bind what is wired
	// to states. A merge is the handle -2-i of spans[i], a window of arena.
	x          *exchange
	one        [1]nodeID
	head, tail nodeID
	steps      []cr.Step[nodeID]
	srcs       []*cr.InstState[nodeID]
	args       []cr.Arg[nodeID]
	buf        []nodeID
	scratch    cr.Scratch[nodeID]
	arena      []nodeID
	spans      [][2]int32
	// prune is consulted where the executor consults it (cr.Wiring, init),
	// so the graph is the pruned schedule's precise happens-before relation,
	// not edge deletion, which would leave the structural done->loopEnd
	// edges of pruned sync in place. Nil builds the conservative schedule.
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
			ids:    make([]instID, ix.Keys()),
			states: make([]cr.InstState[nodeID], ix.Keys()),
			accs:   make([]access, 0, accs),
			opsOf:  make([][]nodeID, c.Opts.NumShards),
		}
	}
	b.ix, b.c, b.prune, b.collectWar = ix, c, prune, false
	b.g = &graph{nodes: b.g.nodes[:0], edges: chunks[edge]{parts: b.g.edges.parts[:0], size: b.g.edges.size}, arrivals: b.g.arrivals[:0], succ: b.g.succ}
	b.refs, b.accs, b.warObs, b.allOps, b.arena, b.spans = b.refs[:0], b.accs[:0], b.warObs[:0], b.allOps[:0], b.arena[:0], b.spans[:0]
	for i := range b.ids {
		b.ids[i] = -1
	}
	return b
}

func (b *builder) id(key int32) instID {
	if b.ids[key] < 0 {
		b.ids[key] = instID(len(b.refs))
		b.refs = append(b.refs, key)
	}
	return b.ids[key]
}

func (b *builder) state(key int32) *cr.InstState[nodeID] {
	b.id(key)
	return &b.states[key]
}

// merge returns the event after every one of evs: the handle -2-i of
// spans[i], the window of arena listing the nodes they stand for.
func (b *builder) merge(evs []nodeID) nodeID {
	at := len(b.arena)
	for _, e := range evs {
		b.arena = append(b.arena, b.nodes(e)...)
	}
	b.spans = append(b.spans, [2]int32{int32(at), int32(len(b.arena))})
	return -1 - nodeID(len(b.spans))
}

// nodes returns the nodes event e stands for: itself, a merge's, or none
// (-1). A node's slice is only valid until the next call.
func (b *builder) nodes(e nodeID) []nodeID {
	switch {
	case e >= 0:
		b.one[0] = e
		return b.one[:]
	case e < -1:
		sp := b.spans[-2-e]
		return b.arena[sp[0]:sp[1]]
	}
	return nil
}

// link adds an edge labelled id into node to from every node of from.
func (b *builder) link(to, from nodeID, id EdgeID) {
	for _, n := range b.nodes(from) {
		b.g.edges.push(edge{from: n, to: to, class: id.Class, copy: int32(id.Copy), pair: int32(id.Pair)})
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
// allows), and finalization. Exchanges are wired by cr.Wiring, as the
// executor's are.
func (b *builder) build() {
	counts.builds.Add(1)
	c, ix := b.c, b.ix
	iters := min(max(c.Loop.Trip, 1), 2)
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
				continue // dead: later overwrites cover every read (prune.go)
			}
			b.record(init, ix.Key(int32(p), ci), fields, ix.spaces[p][ci], true)
		}
	}
	prev := init
	for i, cp := range c.InitCopies {
		var pairs []nodeID
		for k, pr := range cp.Pairs {
			n := b.g.add(node{kind: kInitCopy, iter: -1, body: -1, sub: int32(k), copyID: int32(cp.ID), color: pr.Dst, shard: -1})
			b.link(n, prev, EdgeID{})
			b.record(n, ix.Inits[i][k][0], cp.Fields, pr.Overlap, false)
			b.record(n, ix.Inits[i][k][1], cp.Fields, pr.Overlap, true)
			pairs = append(pairs, n)
		}
		if len(pairs) > 0 {
			prev = b.merge(pairs)
		}
	}
	b.loopStart = b.g.add(node{kind: kLoopStart, iter: -1, body: -1, sub: -1, copyID: -1, shard: -1})
	b.link(b.loopStart, prev, EdgeID{})
	// Every instance is valid from the shards' spawn on.
	for i := range b.states {
		b.states[i] = cr.InstState[nodeID]{LastWrite: b.loopStart, Readers: b.states[i].Readers[:0]}
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
				b.wire(b.ix.exchanges[bi], int32(iter))
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
		fields, slot := c.InstFields[part], ix.Finals[i]
		for ci := range c.Domain {
			b.record(final, ix.Key(slot, ci), fields, ix.spaces[slot][ci], false)
		}
	}
	b.g.succ.fill(b.g, nil, nil)
}

// doLaunch adds one node per task of the index launch, wired from the
// owning shard's instance states as the executor wires the task. A reduce
// argument's contribution lands in the task's private temporary, not the
// partition.
func (b *builder) doLaunch(bi int32, l *ir.Launch, iter int32) {
	slots := b.ix.Args[bi]
	for ci, col := range b.c.Domain {
		sh := b.ix.Shards[ci]
		t := b.g.add(node{kind: kTask, iter: iter, body: bi, sub: 0, copyID: -1, color: col, shard: sh})
		args := b.args[:0]
		for ai := range l.Args {
			param, slot := &l.Task.Params[ai], slots[ai]
			key, write := b.ix.Key(slot, ci), param.Priv != ir.PrivRead
			args = append(args, cr.Arg[nodeID]{InstState: b.state(key), Write: write})
			b.record(t, key, param.Fields, b.ix.spaces[slot][ci], write)
		}
		b.buf = cr.Gate(b.buf[:0], args)
		for _, p := range b.buf {
			b.link(t, p, EdgeID{})
		}
		cr.Launched(args, t)
		b.opsOf[sh] = append(b.opsOf[sh], t)
		b.args = args[:0]
	}
}

// exchange is every shard's cr.ExchangeSteps list starting at one body op —
// the lists the executor runs — gathered once per plan (newExchange). They
// cover the copy alone, an aggregated exchange phase, or (at a phase's
// later ops) nothing.
type exchange struct {
	start, end int32               // the body ops the lists cover
	lists      [][]cr.ExchangeStep // by shard
	// By covered op, the iteration's war, done and carrying transfer's head
	// nodes of each pair, and its two barriers' arrival records; -1: none.
	iter  int32
	pairs [][][3]nodeID
	bar   [][2]int32
}

// wire wires iteration iter of exchange x shard by shard, through the
// executor's wiring, recording war obligations under collectWar.
func (b *builder) wire(x *exchange, iter int32) {
	b.x, x.iter = x, iter
	for i := range x.pairs {
		for k := range x.pairs[i] {
			x.pairs[i][k] = [3]nodeID{-1, -1, -1}
		}
		x.bar[i] = [2]int32{-1, -1}
	}
	first := len(b.warObs)
	var release func(op, pair int32, rel nodeID)
	if b.collectWar {
		release = func(op, k int32, rel nodeID) {
			b.warObs = append(b.warObs, warOb{copyID: b.c.Body[op].Copy.ID, op: op, k: k, release: rel})
		}
	}
	for sh, list := range x.lists {
		steps := b.bind(list)
		w := cr.Wiring[nodeID, graphSink]{Sink: graphSink{b, int32(sh), steps}, C: b.c, Prune: b.prune, Release: release, Scratch: &b.scratch}
		w.Exchange(steps, x.start, x.end, &b.opsOf[sh])
	}
	for i := first; i < len(b.warObs); i++ {
		ob := &b.warObs[i]
		ob.cn, ob.warN = x.pairs[ob.op-x.start][ob.k][2], x.pairs[ob.op-x.start][ob.k][0]
	}
}

// bind binds a shard's step list to the builder's instance states.
func (b *builder) bind(list []cr.ExchangeStep) []cr.Step[nodeID] {
	steps, srcs := b.steps[:0], b.srcs[:0]
	for i := range list {
		st := cr.Step[nodeID]{ExchangeStep: &list[i]}
		if !st.Produce {
			st.Dst = b.state(b.ix.Body[st.Op][st.GroupStart][1])
		}
		at := len(srcs)
		for _, m := range st.Members {
			srcs = append(srcs, &b.states[b.ix.Body[m.Op][m.Pair][0]])
		}
		st.Srcs = srcs[at:len(srcs):len(srcs)]
		steps = append(steps, st)
	}
	b.steps, b.srcs = steps, srcs
	return steps
}

// graphSink is the certifier's cr.Sink for one shard's step list: the
// wiring's events are graph nodes, or merges of them.
type graphSink struct {
	b     *builder
	shard int32
	steps []cr.Step[nodeID]
}

func (k graphSink) Merge(evs ...nodeID) nodeID      { return k.b.merge(evs) }
func (k graphSink) Link(to, from nodeID, id EdgeID) { k.b.link(to, from, id) }
func (k graphSink) War(op, pair int32) nodeID       { return k.b.sync(kWar, op, pair) }
func (k graphSink) Done(op, pair int32) nodeID      { return k.b.sync(kDone, op, pair) }
func (k graphSink) Transfer(_ int, pres []nodeID, ids []EdgeID) nodeID {
	if b := k.b; b.head >= 0 {
		for j, p := range pres {
			b.link(b.head, p, ids[j])
		}
	}
	return k.b.tail
}

// sync returns the war or done node of pair k of the copy at body index op,
// adding it on first use: for a chain link to a pruned done, an orphan for
// the liveness check to flag. Its shard is the event's owner: the pair's
// consumer, except a done's producer under barriers.
func (b *builder) sync(kind nodeKind, op, k int32) nodeID {
	x := b.x
	n := &x.pairs[op-x.start][k][kind-kWar] // war, then done: kDone follows kWar
	if *n < 0 {
		cp, owner := b.c.Body[op].Copy, b.ix.Body[op][k][1]
		if kind == kDone && b.c.Opts.Sync == cr.BarrierSync {
			owner = b.ix.Body[op][k][0]
		}
		*n = b.g.add(node{kind: kind, iter: x.iter, body: op, sub: k, copyID: int32(cp.ID), color: cp.Pairs[k].Dst, shard: b.ix.Shard(owner)})
	}
	return *n
}

// Begin adds step i's transfer as a chain of per-member copy nodes in
// member order (the transfer body's write order), each recording its own
// source read and destination write. Transfer links every precondition
// into the head and returns the tail, so per-member nodes keep conflict
// orientation and witnesses exact. Both are -1 for a step without members.
func (k graphSink) Begin(i int) {
	b, g, x := k.b, k.b.g, k.b.x
	b.head, b.tail = -1, -1
	for _, m := range k.steps[i].Members {
		cp, keys := b.c.Body[m.Op].Copy, b.ix.Body[m.Op][m.Pair]
		pr := cp.Pairs[m.Pair]
		mn := g.add(node{kind: kCopy, iter: x.iter, body: m.Op, sub: m.Pair, copyID: int32(cp.ID), color: pr.Dst, shard: k.shard})
		if b.tail >= 0 {
			g.edge(b.tail, mn)
		} else {
			b.head = mn
		}
		b.tail, x.pairs[m.Op-x.start][m.Pair][2] = mn, b.head
		b.record(mn, keys[0], cp.Fields, pr.Overlap, false)
		b.record(mn, keys[1], cp.Fields, pr.Overlap, true)
	}
}

// Arrive links one shard's arrival into the barrier's node, adding it on
// first use, and counts the arrival.
func (k graphSink) Arrive(op, phase int32, evs []nodeID) nodeID {
	b, x := k.b, k.b.x
	bar := &x.bar[op-x.start]
	if bar[phase] < 0 {
		id := int32(b.c.Body[op].Copy.ID)
		bar[phase] = int32(len(b.g.arrivals))
		n := b.g.add(node{kind: kBarrier, iter: x.iter, body: op, sub: phase, copyID: id, shard: -1})
		b.g.arrivals = append(b.g.arrivals, barrierArrival{b: n, copyID: id, iter: x.iter, phase: phase, want: b.c.Opts.NumShards})
	}
	a := &b.g.arrivals[bar[phase]]
	for _, e := range evs {
		// Every exit arrival carries the entry barrier: one edge orders them.
		if phase == 0 || a.got == 0 || e != b.g.arrivals[bar[0]].b {
			b.link(a.b, e, EdgeID{Class: EdgeBarrier, Copy: int(a.copyID), Pair: int(phase)})
		}
	}
	a.got++
	return a.b
}
