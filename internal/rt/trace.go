package rt

import (
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/region"
)

// Trace capture & replay.
//
// Every application in the evaluation is a time-stepping loop that launches
// an identical task graph each iteration, so the dynamic dependence
// analysis recomputes the same edges over and over. The trace layer
// memoizes one iteration's analysis into an immutable schedule and replays
// it on later iterations, injecting the precomputed event graph into the
// DES without re-walking the region tree.
//
// Protocol per marked loop (a loop whose body is flat — no nested loops):
//
//   - capture: every iteration runs the full analysis while recording a
//     candidate trace — the launch sequence with its fingerprints, and
//     every dependence edge translated into an iteration-relative source
//     reference. At the end of each iteration the engine also snapshots a
//     structural signature of the epoch lists (the users state).
//   - promote: when two consecutive iterations agree — same launch
//     fingerprints and the same epoch-list signature at both iteration
//     boundaries — the analysis has reached a fixpoint: the epoch state at
//     the start of the next iteration equals the state the captured
//     iteration ran from, so its dependence structure recurs verbatim. The
//     latest candidate becomes the trace.
//   - replay: each launch validates a cheap fingerprint (its site — one per
//     launch statement, rebuilt by siteFor when an argument is repartitioned)
//     and then takes its edges from the record instead of the analysis,
//     resolving iteration-relative references against the uses of the current
//     and previous iteration. Replay keeps registerUse live, so the epoch
//     lists continue to evolve exactly as the full analysis would have
//     evolved them — which is what makes mid-stream invalidation sound: on
//     any fingerprint mismatch the trace is discarded and the full analysis
//     resumes from a correct state, then capture starts over.
//
// issueLaunch (launch.go) is the one function that issues a launch either
// way: where an edge came from is all that differs, so all goldens (virtual
// times, BytesSent, event counts) are byte-identical with tracing on.

// TraceStats counts trace activity across an engine run.
type TraceStats struct {
	LoopsTraced      int // traceable loops entered
	CaptureIters     int // iterations spent in capture (full analysis + recording)
	Promotions       int // candidate traces promoted to replay
	ReplayedIters    int // iterations fully replayed from a trace
	ReplayedLaunches int // launches replayed without dependence analysis
	Invalidations    int // fingerprint mismatches that discarded a trace
	Abandoned        int // loops that never stabilized and fell back for good
	// SharedPoints counts index-launch points of promoted traces whose
	// dependence records alias another point's: the iteration-relative AND
	// point-relative encoding makes structurally congruent points (e.g. the
	// interior of a stencil) bitwise identical, so one record serves them
	// all — the rt analogue of the SPMD executor's cross-shard sharing.
	SharedPoints int
}

type tracePhase int8

const (
	tracePhaseCapture tracePhase = iota
	tracePhaseReplay
	tracePhaseOff
)

// maxCaptureIters bounds how long a loop may stay in capture before the
// engine gives up on it (a structurally non-stationary loop never
// stabilizes; see TestTraceNonStationaryFallsBack).
const maxCaptureIters = 8

type srcKind int8

const (
	srcSameIter srcKind = iota // source use created earlier in the same iteration
	srcPrevIter                // source use created in the previous iteration
	srcPinned                  // source outside the two-iteration window; its
	// use survived epoch pruning at the fixpoint, so its completion event is
	// frozen and can be recorded directly
)

// depRec is one captured dependence edge: where the precondition event
// comes from, and the data movement it carries. For same/prev-iteration
// sources, color is RELATIVE to the consuming point (srcColor - dstColor)
// and srcNode is zero — replay resolves both through the use tables — so
// points with congruent dependence structure capture bitwise-identical
// records and share one backing slice (see dedupDeps). Pinned sources keep
// their absolute event and node.
type depRec struct {
	kind    srcKind
	launch  int32       // index of the source launch within the iteration
	arg     int32       // argument index of the source use
	color   int32       // source color minus consuming color (0 for pinned)
	ev      realm.Event // pinned sources only
	srcNode int32       // pinned sources only
	bytes   int64       // >0: RAW edge moving data between nodes
}

// launchRec is one launch of a trace: its fingerprint — a site belongs to
// one launch statement and one set of argument partitions — and its edges.
type launchRec struct {
	site      *site
	deps      [][]depRec // per color, argument-major (the analysis' edge order)
	sharedPts int        // colors whose deps alias an earlier color's slice
}

// useSig is one entry of the epoch-list structural signature. Uses younger
// than the trace window are compared structurally with an iteration-relative
// age; older survivors are compared by identity (same object implies frozen
// completion events, which is what pinned references rely on).
type useSig struct {
	ptr    *use // set only for age >= 2
	part   *region.Partition
	priv   ir.Privilege
	op     region.ReductionOp
	nField int
	full   bool
	age    int8
}

type evOrigin struct {
	iter   int32
	launch int32
	arg    int32
	color  int32
}

// traceState is the per-loop trace machinery, alive for one execLoop call.
type traceState struct {
	loop     *ir.Loop
	phase    tracePhase
	attempts int
	iterSeq  int32

	// Capture state: the previous and current candidate, the epoch-list
	// signature of the previous iteration, and the event provenance index
	// used to translate dependence edges into iteration-relative refs.
	prevRecs []*launchRec
	curRecs  []*launchRec
	prevSig  map[*region.Region][]useSig
	evIndex  map[realm.Event]evOrigin
	origins  map[*use]int32

	// The promoted trace and the replay cursor.
	trace  []*launchRec
	cursor int

	// Uses of the previous / current iteration, indexed [launch][arg], for
	// resolving iteration-relative refs.
	prevUses [][]*use
	curUses  [][]*use

	// Two-stage retirement ring for pooled uses: a use pruned during replay
	// may still be referenced through the tables for one more iteration, so
	// it is recycled only after a full iteration has passed.
	retireNew []*use
	retireOld []*use
}

// loopTraceable reports whether a loop is a trace candidate: enough trips
// to amortize capture, and a flat body (nested loops would interleave their
// launches into the outer iteration's sequence).
func loopTraceable(l *ir.Loop) bool {
	if l.Trip < 3 {
		return false
	}
	for _, s := range l.Body {
		if _, ok := s.(*ir.Loop); ok {
			return false
		}
	}
	return true
}

// beginTrace arms tracing for a loop, or returns nil when tracing is off,
// another trace is active (nested loops), or the loop does not qualify.
func (e *Engine) beginTrace(l *ir.Loop) *traceState {
	if e.NoTrace || e.trace != nil || !loopTraceable(l) {
		return nil
	}
	ts := &traceState{loop: l, phase: tracePhaseCapture}
	e.trace = ts
	e.traceStats.LoopsTraced++
	return ts
}

// endTrace tears the trace down at loop exit, recycling what is safe.
func (e *Engine) endTrace(ts *traceState) {
	if ts == nil {
		return
	}
	e.useFree = append(e.useFree, ts.retireOld...)
	e.useFree = append(e.useFree, ts.retireNew...)
	e.trace = nil
}

func (ts *traceState) beginIter(e *Engine) {
	switch ts.phase {
	case tracePhaseCapture:
		ts.curRecs = ts.curRecs[:0]
		ts.curUses = ts.curUses[:0]
	case tracePhaseReplay:
		ts.cursor = 0
	}
}

func (ts *traceState) endIter(e *Engine) {
	switch ts.phase {
	case tracePhaseCapture:
		e.traceStats.CaptureIters++
		sig := e.computeSig(ts)
		if ts.fingerprintsStable() && sigEqual(ts.prevSig, sig) {
			ts.trace = append([]*launchRec(nil), ts.curRecs...)
			ts.phase = tracePhaseReplay
			ts.evIndex = nil
			ts.origins = nil
			e.traceStats.Promotions++
			for _, r := range ts.trace {
				e.traceStats.SharedPoints += r.sharedPts
			}
		} else {
			ts.prevRecs, ts.curRecs = ts.curRecs, ts.prevRecs[:0]
			ts.prevSig = sig
			ts.attempts++
			if ts.attempts >= maxCaptureIters {
				ts.phase = tracePhaseOff
				ts.evIndex = nil
				ts.origins = nil
				e.traceStats.Abandoned++
			}
		}
	case tracePhaseReplay:
		if ts.cursor != len(ts.trace) {
			// The iteration issued fewer launches than the trace holds.
			ts.invalidate(e)
		} else {
			e.traceStats.ReplayedIters++
		}
	}
	// Rotate the use tables (current becomes previous) and the retirement
	// ring; both are maintained in every phase so capture can resume with a
	// valid window after an invalidation.
	ts.prevUses, ts.curUses = ts.curUses, ts.prevUses
	e.useFree = append(e.useFree, ts.retireOld...)
	ts.retireOld, ts.retireNew = ts.retireNew, ts.retireOld[:0]
	ts.iterSeq++
}

// fingerprintsStable reports whether the current and previous capture
// iterations issued the same launch sequence against the same partitions.
func (ts *traceState) fingerprintsStable() bool {
	if ts.prevRecs == nil || len(ts.prevRecs) != len(ts.curRecs) || len(ts.curRecs) == 0 {
		return false
	}
	for i, cur := range ts.curRecs {
		if cur.site != ts.prevRecs[i].site {
			return false
		}
	}
	return true
}

// next returns the trace record for the launch about to issue, or nil on
// any fingerprint mismatch: exhausted trace, another statement's site
// (control-flow change), or a rebuilt one (repartition).
func (ts *traceState) next(st *site) *launchRec {
	if ts.cursor < len(ts.trace) && ts.trace[ts.cursor].site == st {
		return ts.trace[ts.cursor]
	}
	return nil
}

// resolve turns a recorded edge of the point at domain position idx back
// into the dependence the analysis would have found this iteration.
func (ts *traceState) resolve(d *depRec, idx int) dep {
	var u *use
	switch d.kind {
	case srcSameIter:
		u = ts.curUses[d.launch][d.arg]
	case srcPrevIter:
		u = ts.prevUses[d.launch][d.arg]
	default:
		return dep{ev: d.ev, srcNode: int(d.srcNode), bytes: d.bytes}
	}
	ci := int32(idx) + d.color
	return dep{ev: u.done[ci], srcNode: u.node[ci], bytes: d.bytes}
}

// invalidate discards the trace and restarts capture from scratch. Launches
// already replayed this iteration used dependence edges that were valid up
// to the point of divergence, and the epoch lists are live, so the full
// analysis resumes from a correct state.
func (ts *traceState) invalidate(e *Engine) {
	e.traceStats.Invalidations++
	ts.trace = nil
	ts.phase = tracePhaseCapture
	ts.attempts = 0
	ts.prevRecs, ts.curRecs = nil, nil
	ts.prevSig = nil
	ts.evIndex = nil
	ts.origins = nil
	ts.prevUses = ts.prevUses[:0]
	ts.curUses = ts.curUses[:0]
	// The tables no longer reference retired uses, so the ring can drain.
	e.useFree = append(e.useFree, ts.retireOld...)
	e.useFree = append(e.useFree, ts.retireNew...)
	ts.retireOld, ts.retireNew = ts.retireOld[:0], ts.retireNew[:0]
}

// captureLaunch records one analysed launch into the current candidate:
// fingerprint, and each dependence edge translated into an
// iteration-relative (or pinned) source reference.
func (ts *traceState) captureLaunch(st *site, uses []*use, deps [][][]dep) {
	launchIdx := int32(len(ts.curRecs))
	rec := &launchRec{site: st, deps: make([][]depRec, len(st.targets))}
	for idx := range rec.deps {
		var drs []depRec
		for ai := range deps {
			for _, d := range deps[ai][idx] {
				dr := depRec{bytes: d.bytes}
				if o, ok := ts.evIndex[d.ev]; ok && o.iter == ts.iterSeq {
					dr.kind, dr.launch, dr.arg, dr.color = srcSameIter, o.launch, o.arg, o.color-int32(idx)
				} else if ok && o.iter == ts.iterSeq-1 {
					dr.kind, dr.launch, dr.arg, dr.color = srcPrevIter, o.launch, o.arg, o.color-int32(idx)
				} else {
					dr.kind, dr.ev, dr.srcNode = srcPinned, d.ev, int32(d.srcNode)
				}
				drs = append(drs, dr)
			}
		}
		rec.deps[idx] = drs
	}
	rec.sharedPts = dedupDeps(rec.deps)
	ts.curRecs = append(ts.curRecs, rec)

	// Index this launch's completion events for later edges, and remember
	// each use's birth iteration for the signature's age classification.
	if ts.evIndex == nil {
		ts.evIndex = make(map[realm.Event]evOrigin)
		ts.origins = make(map[*use]int32)
	}
	ts.curUses = append(ts.curUses, uses)
	for ai, u := range uses {
		ts.origins[u] = ts.iterSeq
		for ci, ev := range u.done {
			if _, exists := ts.evIndex[ev]; !exists {
				ts.evIndex[ev] = evOrigin{iter: ts.iterSeq, launch: launchIdx, arg: int32(ai), color: int32(ci)}
			}
		}
	}
}

// dedupDeps collapses bitwise-identical per-color dependence slices onto
// one backing array and reports how many colors were collapsed. The
// relative encoding of depRec makes translationally congruent points equal,
// so the trace of an N-point stencil stores a handful of distinct boundary
// shapes plus ONE interior record instead of N. Dedup never changes replay
// behavior — the slices are immutable and each point still resolves its own
// absolute colors — it only proves and exploits the congruence.
func dedupDeps(deps [][]depRec) int {
	shared := 0
	byHash := make(map[uint64][]int)
	for idx := range deps {
		h := hashDeps(deps[idx])
		found := false
		for _, prev := range byHash[h] {
			if depsEqual(deps[prev], deps[idx]) {
				deps[idx] = deps[prev]
				shared++
				found = true
				break
			}
		}
		if !found {
			byHash[h] = append(byHash[h], idx)
		}
	}
	return shared
}

// hashDeps is a deterministic FNV-1a fold of a dependence slice, used only
// to bucket candidates for the exact comparison in dedupDeps.
func hashDeps(drs []depRec) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, d := range drs {
		mix(uint64(d.kind))
		mix(uint64(uint32(d.launch)))
		mix(uint64(uint32(d.arg)))
		mix(uint64(uint32(d.color)))
		mix(uint64(d.ev))
		mix(uint64(uint32(d.srcNode)))
		mix(uint64(d.bytes))
	}
	return h
}

func depsEqual(a, b []depRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// computeSig snapshots the structural state of the epoch lists.
func (e *Engine) computeSig(ts *traceState) map[*region.Region][]useSig {
	sig := make(map[*region.Region][]useSig, len(e.users))
	for root, uses := range e.users {
		if len(uses) == 0 {
			continue
		}
		list := make([]useSig, len(uses))
		for i, u := range uses {
			s := useSig{part: u.part, priv: u.priv, op: u.op, nField: len(u.fields), full: u.full}
			if o, ok := ts.origins[u]; ok && ts.iterSeq-o < 2 {
				s.age = int8(ts.iterSeq - o)
			} else {
				s.age = 2
				s.ptr = u
			}
			list[i] = s
		}
		sig[root] = list
	}
	return sig
}

func sigEqual(a, b map[*region.Region][]useSig) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for root, la := range a {
		lb, ok := b[root]
		if !ok || len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	return true
}

// getUse returns a use with done/node sized for numColors: recycled from the
// pool when pooled (replay), otherwise newly allocated — while a trace is
// captured the signature compares old uses by identity, so a recycled one
// could make two different epoch states compare equal. Pool hygiene: every
// field is overwritten by the caller.
func (e *Engine) getUse(numColors int, pooled bool) *use {
	var u *use
	if n := len(e.useFree); pooled && n > 0 {
		u = e.useFree[n-1]
		e.useFree[n-1] = nil
		e.useFree = e.useFree[:n-1]
	} else {
		u = &use{}
	}
	if cap(u.done) < numColors {
		u.done = make([]realm.Event, numColors)
		u.node = make([]int, numColors)
	} else {
		u.done = u.done[:numColors]
		u.node = u.node[:numColors]
	}
	return u
}
