package realm

// EventTable is the event table both backends keep their one-shot events
// in. Handles are dense (every event ever made has its own) and the table
// is paged: event e lives in pages[(e-1)>>evPageBits], a page never moves,
// so making events copies nothing, and a page whose events have all fired
// is dropped to a free list with its slot left nil, which reads as "fired".
// Memory is thus bounded by the events in flight, not the events ever made.
//
// The table is not synchronized: the DES owns one outright, the native
// machine keeps one under its lock. Neither runs continuations inside it —
// Fire hands them back, so the caller decides where they run.
type EventTable struct {
	pages     []*evPage
	freePages []*evPage
	n         int // events ever made

	// waiters is the slab of every event's second and later waiters, one
	// circular list each; node i is waiters[i-1] (0 is none), free heads
	// the freed ones.
	waiters []waiter
	free    int32
}

// waiter is one slab node: a continuation and the next node of its list.
type waiter struct {
	fn   func()
	next int32
}

// eventState is one event's slot: 16 bytes, so a page is 16 KB. Most
// events that are waited on at all have exactly one waiter, so the first
// lives in the slot itself and only the second and later ones take slab
// nodes; last is the newest of those, whose next is the oldest.
type eventState struct {
	first     func() // the first waiter registered
	last      int32
	triggered bool
	kind      uint8 // the backend's label for diagnostics (SetKind)
}

const (
	evPageBits = 10
	evPageSize = 1 << evPageBits
)

// evPage is one fixed-size block of the table. Only a made event can fire,
// so triggered == evPageSize means the page is both completely allocated
// and completely retired.
type evPage struct {
	evs       [evPageSize]eventState
	triggered int
}

// Reserve makes n > 0 untriggered events with contiguous handles and
// returns the first; the block is first, first+1, ..., first+n-1.
func (t *EventTable) Reserve(n int) Event {
	first := Event(t.n + 1)
	t.n += n
	for len(t.pages)<<evPageBits < t.n {
		var p *evPage
		if k := len(t.freePages); k > 0 {
			p, t.freePages = t.freePages[k-1], t.freePages[:k-1]
		} else {
			p = new(evPage)
		}
		t.pages = append(t.pages, p)
	}
	return first
}

// state returns e's slot; nil once every event of its page has fired.
func (t *EventTable) state(e Event) *eventState {
	p := t.pages[(e-1)>>evPageBits]
	if p == nil {
		return nil
	}
	return &p.evs[(e-1)&(evPageSize-1)]
}

// Triggered reports whether e has fired; NoEvent always has.
func (t *EventTable) Triggered(e Event) bool {
	if e == NoEvent {
		return true
	}
	st := t.state(e)
	return st == nil || st.triggered
}

// Await registers fn to run when e fires and reports true, or registers
// nothing and reports false when e has already fired.
func (t *EventTable) Await(e Event, fn func()) bool {
	if e == NoEvent {
		return false
	}
	st := t.state(e)
	if st == nil || st.triggered {
		return false
	}
	if st.first == nil {
		st.first = fn
		return true
	}
	i := t.free
	if i == 0 {
		t.waiters = append(t.waiters, waiter{})
		i = int32(len(t.waiters))
	}
	t.free, t.waiters[i-1] = t.waiters[i-1].next, waiter{fn, i}
	if st.last != 0 {
		t.waiters[i-1].next, t.waiters[st.last-1].next = t.waiters[st.last-1].next, i
	}
	st.last = i
	return true
}

// Fire marks e fired and returns its continuations in registration order —
// first (nil when nothing waits), then the chain from rest (0 when none),
// which the caller walks with Next; ok is false when e had already fired.
// The last event of a page to fire drops the page before anything runs
// (continuations may make events).
func (t *EventTable) Fire(e Event) (first func(), rest int32, ok bool) {
	p := t.pages[(e-1)>>evPageBits]
	if p == nil {
		return nil, 0, false
	}
	st := &p.evs[(e-1)&(evPageSize-1)]
	if st.triggered {
		return nil, 0, false
	}
	st.triggered = true
	if st.last != 0 {
		rest, t.waiters[st.last-1].next = t.waiters[st.last-1].next, 0
	}
	first, st.first, st.last = st.first, nil, 0
	if p.triggered++; p.triggered == evPageSize {
		t.drop(e)
	}
	return first, rest, true
}

// Next frees chain node *i, steps *i to the node after it (0 at the end)
// and returns the freed node's continuation, which may thus reuse it.
func (t *EventTable) Next(i *int32) func() {
	n := *i
	w := t.waiters[n-1]
	t.waiters[n-1], t.free, *i = waiter{next: t.free}, n, w.next
	return w.fn
}

// drop retires e's page, all of whose events have fired, to the free list.
func (t *EventTable) drop(e Event) {
	p := t.pages[(e-1)>>evPageBits]
	t.pages[(e-1)>>evPageBits] = nil
	*p = evPage{}
	t.freePages = append(t.freePages, p)
}

// SetKind labels the untriggered event e with a backend-defined kind.
func (t *EventTable) SetKind(e Event, kind uint8) { t.state(e).kind = kind }

// Kind returns e's label; 0 once e's page has been dropped.
func (t *EventTable) Kind(e Event) uint8 {
	if st := t.state(e); st != nil {
		return st.kind
	}
	return 0
}
