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

	// waiterPool recycles the waiter slices of fired events; runs create
	// and retire millions of events, and reusing the slices keeps the
	// register/fire path allocation-free at steady state.
	waiterPool [][]func()
}

// eventState is one event's slot: 40 bytes, so a page is 160 KB. Most
// events that are waited on at all have exactly one waiter, so the first
// lives in the slot itself and only the second and later ones take a
// pooled slice.
type eventState struct {
	triggered bool
	kind      uint8  // the backend's label for diagnostics (SetKind)
	first     func() // the first waiter registered
	waiters   []func()
}

const (
	evPageBits = 12
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
	if st.waiters == nil {
		if n := len(t.waiterPool); n > 0 {
			st.waiters = t.waiterPool[n-1]
			t.waiterPool = t.waiterPool[:n-1]
		}
	}
	st.waiters = append(st.waiters, fn)
	return true
}

// Fire marks e fired and returns its continuations in registration order —
// first (nil when nothing waits), then rest — for the caller to run and
// then hand rest to Recycle; ok is false when e had already fired. The last
// event of a page to fire drops the page before anything runs
// (continuations may make events).
func (t *EventTable) Fire(e Event) (first func(), rest []func(), ok bool) {
	p := t.pages[(e-1)>>evPageBits]
	if p == nil {
		return nil, nil, false
	}
	st := &p.evs[(e-1)&(evPageSize-1)]
	if st.triggered {
		return nil, nil, false
	}
	st.triggered = true
	first, rest = st.first, st.waiters
	st.first, st.waiters = nil, nil
	if p.triggered++; p.triggered == evPageSize {
		t.drop(e)
	}
	return first, rest, true
}

// drop retires e's page, all of whose events have fired, to the free list.
func (t *EventTable) drop(e Event) {
	p := t.pages[(e-1)>>evPageBits]
	t.pages[(e-1)>>evPageBits] = nil
	*p = evPage{}
	t.freePages = append(t.freePages, p)
}

// Recycle takes back a rest slice Fire returned, once the caller has run
// its continuations and cleared each entry (releasing the closures).
func (t *EventTable) Recycle(rest []func()) {
	if cap(rest) > 0 {
		t.waiterPool = append(t.waiterPool, rest[:0])
	}
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
