package cr

import (
	"strconv"

	"repro/internal/region"
)

// Wiring: which events every task and exchange step of a shard waits on and
// triggers, written once. The SPMD executor (internal/spmd) instantiates it
// on realm events and runs the schedule; the certifier (internal/verify)
// instantiates it on graph nodes, labelling each synchronization edge with
// the EdgeID pruning and mutation name, and analyses the same schedule.

// EdgeClass names a class of deletable happens-before edges — the
// synchronization the compiler/runtime inserts, as opposed to the
// structural dependence edges of the issue loop itself.
type EdgeClass int8

const (
	EdgeStruct EdgeClass = iota // local dependence / phase edges; never deleted
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

// InstState is one instance's dependence state: the event after which its
// contents are valid, and the readers issued since.
type InstState[E any] struct {
	LastWrite E
	Readers   []E
}

// Step is one exchange step bound to a walker's instance states: a consume
// step's destination, a produce step's member sources.
type Step[E any] struct {
	*ExchangeStep
	Dst  *InstState[E]
	Srcs []*InstState[E]
}

// Sink is what the wiring does with events of type E. A pair is named by
// its copy's body index and its index in the copy, a produce step by its
// index in the step list.
type Sink[E any] interface {
	// Merge returns an event after every one of evs; evs is not retained.
	Merge(evs ...E) E
	// Link makes to wait on from; id labels the synchronization.
	Link(to, from E, id EdgeID)
	// War and Done return a pair's war and done events (§3.4).
	War(op, pair int32) E
	Done(op, pair int32) E
	// Begin starts a produce step's transfer, and Transfer issues it once
	// every one of pres has triggered (ids[j] labels pres[j]) and returns
	// its completion; pres and ids are not retained.
	Begin(step int)
	Transfer(step int, pres []E, ids []EdgeID) E
	// Arrive arrives at phase 0 (entry) or 1 (exit) of the barrier pair of
	// the copy at body index op once every one of evs has triggered, and
	// returns the barrier's completion.
	Arrive(op, phase int32, evs []E) E
}

// Arg is one task argument's instance state and whether the task writes it
// (read-write and reduction privileges both do).
type Arg[E any] struct {
	*InstState[E]
	Write bool
}

// Gate appends to pres what a task over args waits on: each argument's
// last writer and the readers of each it writes, all gathered before
// Launched updates any state, so two arguments on one instance do not see
// each other's update.
func Gate[E any](pres []E, args []Arg[E]) []E {
	for _, a := range args {
		pres = append(pres, a.LastWrite)
		if a.Write {
			pres = append(pres, a.Readers...)
		}
	}
	return pres
}

// Launched records the completion ev of the task over args.
func Launched[E any](args []Arg[E], ev E) {
	for _, a := range args {
		if a.Write {
			a.LastWrite, a.Readers = ev, a.Readers[:0]
		} else {
			a.Readers = append(a.Readers, ev)
		}
	}
}

// Wiring wires a shard's exchange step lists of loop C into its sink under
// the prune license Prune. Release, if set, is told every consumed pair's
// release, its war pruned or not; Scratch holds recycled buffers.
type Wiring[E any, S Sink[E]] struct {
	Sink    S
	C       *Compiled
	Prune   *PruneInfo
	Release func(op, pair int32, release E)
	Scratch *Scratch[E]
}

// Scratch is a walker's recycled buffers for the wiring.
type Scratch[E any] struct {
	buf, entries, copies []E
	ids                  []EdgeID
}

// Exchange wires one shard's step list covering the copies at body indices
// [start, end) under the loop's sync lowering (§3.4), adding to *ops what
// the shard's iteration waits on. Under point-to-point sync the steps run
// in list order. Under the barrier lowering of Figure 4c, the ablation
// baseline, a transfer's members may span the covered copies, so the shard
// arrives at EVERY copy's entry (write-after-read) barrier up front —
// threading one copy's exit barrier into the next one's entry would cycle
// the transfers against the barriers — then issues its transfers, then
// arrives at every exit (read-after-write) barrier with all of them:
// tighter than one copy at a time, never a reordering.
func (w *Wiring[E, S]) Exchange(steps []Step[E], start, end int32, ops *[]E) {
	if w.C.Opts.Sync != BarrierSync {
		for i := range steps {
			if st := &steps[i]; st.Produce {
				w.produce(i, st, nil, ops)
			} else {
				w.consume(st, ops)
			}
		}
		return
	}
	sc := w.Scratch
	entries := sc.entries[:0]
	for op := start; op < end; op++ {
		arr := append(sc.buf[:0], *ops...)
		for i := range steps {
			if d := steps[i].Dst; d != nil && steps[i].Op == op {
				arr = append(append(arr, d.LastWrite), d.Readers...)
			}
		}
		entries = append(entries, w.Sink.Arrive(op, 0, arr))
		sc.buf = arr[:0]
	}
	copies := sc.copies[:0]
	for i := range steps {
		if st := &steps[i]; st.Produce {
			copies = append(copies, w.produce(i, st, entries, ops))
		}
	}
	for op := start; op < end; op++ {
		arr := append(append(sc.buf[:0], copies...), entries[op-start])
		done := w.Sink.Arrive(op, 1, arr)
		sc.buf = arr[:0]
		for i := range steps {
			if d := steps[i].Dst; d != nil && steps[i].Op == op {
				d.LastWrite = w.Sink.Merge(d.LastWrite, done)
				d.Readers = d.Readers[:0]
			}
		}
		*ops = append(*ops, done)
	}
	sc.entries, sc.copies = entries[:0], copies[:0]
}

// consume wires a consume step under point-to-point sync: the
// destination's owner releases every pair's war event once the instance's
// readers and last writer are done, and the instance becomes valid after
// the pairs' done events, which the shard's iteration also waits on.
func (w *Wiring[E, S]) consume(st *Step[E], ops *[]E) {
	s, sc, id := w.Sink, w.Scratch, w.C.Body[st.Op].Copy.ID
	dst := st.Dst
	rel := append(append(sc.buf[:0], dst.Readers...), dst.LastWrite)
	release := s.Merge(rel...)
	writes := append(rel[:0], dst.LastWrite)
	for k := st.GroupStart; k < st.GroupEnd; k++ {
		if w.Release != nil {
			w.Release(st.Op, k, release)
		}
		if !w.Prune.SkipWar(id, int(k)) {
			s.Link(s.War(st.Op, k), release, EdgeID{EdgeWAR, id, int(k)})
		}
		if !w.Prune.SkipDone(id, int(k)) {
			d := s.Done(st.Op, k)
			writes = append(writes, d)
			*ops = append(*ops, d)
		}
	}
	dst.LastWrite = s.Merge(writes...)
	dst.Readers = dst.Readers[:0]
	sc.buf = writes[:0]
}

// produce wires produce step i, ONE transfer of the members in order, and
// returns its completion. The transfer waits on each member's source and
// fold-chain link (the done event may be another shard's) and on the
// lowering's sync. Under point-to-point sync (entries nil) that is each
// member's war, and it triggers each member's done — or, that pruned,
// joins the shard's iteration itself, so loop-end quiescence still covers
// it. Under barriers it waits on the entry barriers and triggers only
// reduction members' dones, which order the folds across shards.
func (w *Wiring[E, S]) produce(i int, st *Step[E], entries []E, ops *[]E) E {
	s, sc, p2p := w.Sink, w.Scratch, entries == nil
	s.Begin(i)
	pres, ids := append(sc.buf[:0], entries...), sc.ids[:0]
	for range entries {
		ids = append(ids, EdgeID{})
	}
	for mi, m := range st.Members {
		id, k := w.C.Body[m.Op].Copy.ID, int(m.Pair)
		if p2p && !w.Prune.SkipWar(id, k) {
			pres, ids = append(pres, s.War(m.Op, m.Pair)), append(ids, EdgeID{})
		}
		pres, ids = append(pres, st.Srcs[mi].LastWrite), append(ids, EdgeID{})
		if m.Chain && !w.Prune.SkipChain(id, k) {
			pres, ids = append(pres, s.Done(m.Op, m.Pair-1)), append(ids, EdgeID{EdgeChain, id, k})
		}
	}
	ev := s.Transfer(i, pres, ids)
	sc.buf, sc.ids = pres[:0], ids[:0]
	for mi, m := range st.Members {
		src := st.Srcs[mi]
		src.Readers = append(src.Readers, ev)
		cp := w.C.Body[m.Op].Copy
		switch skip := w.Prune.SkipDone(cp.ID, int(m.Pair)); {
		case p2p && skip:
			*ops = append(*ops, ev)
		case p2p || cp.Reduce != region.ReduceNone && !skip:
			d := s.Done(m.Op, m.Pair)
			s.Link(d, ev, EdgeID{EdgeDone, cp.ID, int(m.Pair)})
			if p2p {
				*ops = append(*ops, d)
			}
		}
	}
	return ev
}
