package realm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// TestDeadlockReleasesThreads: once Run has diagnosed a deadlock nothing can
// resume the blocked threads, so it unwinds them; their coroutines must not
// outlive the run.
func TestDeadlockReleasesThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	s := MustNewSim(smallConfig(1))
	never := s.NewUserEvent()
	unwound := 0
	for i := 0; i < 64; i++ {
		s.SpawnOn(fmt.Sprintf("stuck%d", i), 0, i%2, func(th Agent) {
			defer func() {
				if r := recover(); r != nil {
					if IsThreadKilled(r) {
						unwound++
					}
					panic(r)
				}
			}()
			th.Elapse(Time(i + 1))
			th.WaitEvent(never)
		})
	}
	_, err := s.Run()
	var derr *DeadlockError
	if !errors.As(err, &derr) || len(derr.Blocked) != 64 {
		t.Fatalf("want a DeadlockError naming 64 threads, got %v", err)
	}
	for i, b := range derr.Blocked {
		if b.Name != fmt.Sprintf("stuck%d", i) || b.Waiting != never {
			t.Fatalf("blocked[%d] = %+v, want stuck%d waiting on %d", i, b, i, never)
		}
	}
	if unwound != 64 {
		t.Errorf("%d threads unwound with the kill sentinel, want 64", unwound)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the deadlocked run, %d after", before, after)
	}
}

// TestThreadPanicSurfacesFromRun: a thread body's panic comes out of
// Sim.Run on the caller's goroutine, where a bare Spawn (an MPI rank of
// internal/baseline: no engine-level recover) can recover the original
// value.
func TestThreadPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ code int }
	s := MustNewSim(smallConfig(2))
	s.SpawnOn("rank0", 0, 0, func(th Agent) {
		th.Elapse(5)
		panic(boom{42})
	})
	s.SpawnOn("rank1", 1, 0, func(th Agent) { th.Elapse(50) })
	var got interface{}
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if got != (boom{42}) {
		t.Fatalf("recovered %#v around Run, want %#v", got, boom{42})
	}
}

// refItem and refHeap are the event set the scheduler used before the radix
// queue, kept as the reference the queue is held to: a 4-ary min-heap
// ordered by (at, seq), seq counting pushes.
type refItem struct {
	at  Time
	seq int64
}

type refHeap []refItem

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(it refItem) {
	*h = append(*h, it)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() refItem {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		min := i
		for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if min == i {
			return top
		}
		old[i], old[min] = old[min], old[i]
		i = min
	}
}

// TestQueuePopOrderMatchesHeapOnly drives the real scheduling entry points
// with a seeded stream and mirrors every push into the reference heap. Each
// item, as it runs, must be exactly what the reference pops next. The
// stream has ties at the current instant, clamped past times, pushes before
// Run starts, deltas of 2^40 and above, and bursts that keep joining one
// future time while the clock closes in on it and after it gets there. It
// runs in two legs on one Sim: the first Run, and a refill from empty at
// the clock the first left.
func TestQueuePopOrderMatchesHeapOnly(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := MustNewSim(smallConfig(1))
		var ref refHeap
		var budget int
		var seq, pops int64
		var burst Time
		var schedule func()
		push := func(at Time, kind int) {
			seq++
			seq := seq
			ran := func() {
				pops++
				if len(ref) == 0 {
					t.Fatalf("seed %d: item %d ran but the reference heap is empty", seed, seq)
				}
				if want := ref.pop(); want.seq != seq || want.at != s.now {
					t.Fatalf("seed %d: ran (at %d, seq %d), heap-only order pops (at %d, seq %d)", seed, s.now, seq, want.at, want.seq)
				}
				schedule()
			}
			switch {
			case kind < 4:
				ev := s.NewUserEvent()
				s.OnTrigger(ev, ran)
				s.atDone(at, nil, ev)
			default:
				s.at(at, ran)
			}
			if at < s.now {
				at = s.now
			}
			ref.push(refItem{at: at, seq: seq})
		}
		schedule = func() {
			for k := 1 + rng.Intn(3); k > 0 && budget > 0; k-- {
				budget--
				at := s.now
				switch rng.Intn(6) {
				case 0:
					at += Time(1 + rng.Intn(3)*5)
				case 1:
					at -= Time(rng.Intn(4)) // clamped to now
				case 2:
					if s.now < 1<<61 {
						at += Time(1)<<(40+rng.Intn(17)) + Time(rng.Intn(3))
					}
				case 3:
					if burst < s.now {
						burst = s.now + Time(1+rng.Intn(200))
						if rng.Intn(4) == 0 && s.now < 1<<61 {
							burst += Time(1) << (40 + rng.Intn(10))
						}
					}
					at = burst
				}
				push(at, rng.Intn(8))
			}
		}
		leg := func(name string, n int, start func()) {
			before := pops
			budget = n
			start() // outside Run: at time zero, or at the clock the last Run left
			s.MustRun()
			if s.stats.Events != pops || pops-before < int64(n)*2/3 {
				t.Fatalf("seed %d, %s: Stats.Events = %d, items run = %d (%d before)", seed, name, s.stats.Events, pops, before)
			}
			if len(ref) != 0 {
				t.Fatalf("seed %d, %s: Run returned with %d items unpopped", seed, name, len(ref))
			}
		}
		leg("first run", 3000, schedule)
		leg("refill", 1500, schedule)
	}
}

// runQueueScript interprets data as a push/pop script against a bare
// eventQueue and the reference heap, and fails on the first pop that is not
// the reference's. Two bytes make one step: the first picks pop, or a push
// a small delta past last, a delta of 2^k past last, or at the time of the
// previous push (an equal-time burst); the second is the delta or k. Every
// push is clamped to last, as Sim.enqueue clamps to the clock. It returns
// the queue, drained, and its peak occupancy.
func runQueueScript(t testing.TB, data []byte) (*eventQueue, int) {
	q := &eventQueue{slab: make([]queued, 1)}
	var ref refHeap
	var prev Time
	peak := 0
	pop := func() {
		got, want := q.pop(), ref.pop()
		if got.at != want.at || int64(got.ev) != want.seq {
			t.Fatalf("pop %d: got (at %d, push %d), the reference pops (at %d, push %d)", len(ref), got.at, got.ev, want.at, want.seq)
		}
		if got.at != q.last {
			t.Fatalf("popped an item due at %d with last = %d", got.at, q.last)
		}
	}
	for id := int64(1); len(data) >= 2; data = data[2:] {
		at := q.last
		switch op, arg := data[0]&3, Time(data[1]); op {
		case 0:
			if len(ref) > 0 {
				pop()
			}
			continue
		case 1:
			at += arg
		case 2:
			if at < 1<<61 {
				at += 1<<(arg%61) + Time(data[0]>>2)
			}
		case 3:
			at = prev
		}
		if at < q.last {
			at = q.last
		}
		prev = at
		q.push(queued{at: at, ev: Event(id)})
		ref.push(refItem{at: at, seq: id})
		if id++; len(ref) > peak {
			peak = len(ref)
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if q.occupied != 0 || q.head != [65]int32{} || q.tail != [65]int32{} {
		t.Fatalf("drained queue still has buckets: occupied %#x", q.occupied)
	}
	return q, peak
}

// FuzzQueuePopOrder: for any push/pop script the radix queue pops exactly
// what the (at, seq) heap pops.
func FuzzQueuePopOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 1, 5, 3, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0})           // ties before and after a refill
	f.Add([]byte{2, 40, 2, 60, 6, 60, 1, 9, 0, 0, 3, 0, 2, 59, 0, 0, 0, 0}) // 2^40 and above
	f.Add([]byte{1, 200, 1, 100, 0, 0, 1, 100, 3, 0, 0, 0, 3, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runQueueScript(t, data) })
}

// TestQueueRetainsPeakOccupancy: the queue's memory follows its peak
// occupancy, not the number of items that ever passed through or the
// number of buckets they visited — the slab has exactly one slot per item
// of the fullest moment, and append's growth keeps its capacity within 4x.
func TestQueueRetainsPeakOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	script := make([]byte, 0, 1<<20)
	for len(script) < cap(script) {
		op := byte(1 + rng.Intn(3)) // push
		if n := len(script) / 2; n%8192 >= 5000 || n%8192 > 2000 && rng.Intn(2) == 0 {
			op = 0 // drain in waves, so the buckets empty and fill again
		}
		script = append(script, op|byte(rng.Intn(64))<<2, byte(rng.Intn(256)))
	}
	q, peak := runQueueScript(t, script)
	if peak < 1000 || len(q.slab)-1 != peak || cap(q.slab) > 4*peak {
		t.Errorf("slab has %d slots (capacity %d) after a peak occupancy of %d over %d steps", len(q.slab)-1, cap(q.slab), peak, len(script)/2)
	}
	free := 0
	for i := q.free; i != 0; i = q.slab[i].next {
		free++
	}
	if free != peak {
		t.Errorf("%d of %d slots are on the free list of the drained queue", free, peak)
	}
}

// TestQueueBucket64: a time that differs from last in bit 63 — a negative
// last, which Sim never has — lands in the 65th bucket and comes out in
// order.
func TestQueueBucket64(t *testing.T) {
	q := &eventQueue{slab: make([]queued, 1), last: -1 << 62}
	for i, at := range []Time{1 << 62, -5, 3, -1 << 62, 3, 1<<63 - 1} {
		q.push(queued{at: at, ev: Event(i)})
	}
	if q.head[64] == 0 || q.occupied>>63 != 1 {
		t.Fatalf("nothing in bucket 64 (occupied %#x)", q.occupied)
	}
	want := []queued{{at: -1 << 62, ev: 3}, {at: -5, ev: 1}, {at: 3, ev: 2}, {at: 3, ev: 4}, {at: 1 << 62, ev: 0}, {at: 1<<63 - 1, ev: 5}}
	for _, w := range want {
		if got := q.pop(); got.at != w.at || got.ev != w.ev {
			t.Fatalf("popped (at %d, push %d), want (at %d, push %d)", got.at, got.ev, w.at, w.ev)
		}
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("panicked with %q, want %q", got, want)
		}
	}()
	fn()
}

// TestDroppedPageReadsAsTriggered: a page whose events have all triggered
// is dropped; handles into it keep every observable behaviour of a
// triggered event.
func TestDroppedPageReadsAsTriggered(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	// Page 0 holds the node's fail event, which never fires here: the
	// test's events start on page 1.
	s.ReserveEvents(evPageSize - 1)
	first := s.ReserveEvents(evPageSize)
	next := s.NewUserEvent()
	for i := Event(0); i < evPageSize; i++ {
		if s.events.livePages() != 3 {
			t.Fatalf("page dropped after %d of %d triggers", i, evPageSize)
		}
		s.Trigger(first + i)
	}
	if s.events.pages[1] != nil || s.events.livePages() != 2 || len(s.events.freePages) != 1 {
		t.Fatalf("full page not dropped: live=%d free=%d", s.events.livePages(), len(s.events.freePages))
	}
	for _, e := range []Event{first, first + 7, first + evPageSize - 1} {
		if !s.Triggered(e) {
			t.Errorf("event %d in a dropped page reads untriggered", e)
		}
		ran := false
		s.OnTrigger(e, func() { ran = true })
		if !ran {
			t.Errorf("OnTrigger(%d) in a dropped page did not run inline", e)
		}
		if s.Merge(e, first) != NoEvent {
			t.Errorf("Merge of dropped-page events is not NoEvent")
		}
		mustPanic(t, fmt.Sprintf("realm: event %d triggered twice", e), func() { s.Trigger(e) })
	}
	woke := false
	s.SpawnOn("w", 0, 0, func(th Agent) { th.WaitEvent(first + 3); woke = true })
	s.MustRun()
	if !woke {
		t.Error("WaitEvent on a dropped-page event blocked")
	}
	if s.Triggered(next) {
		t.Error("dropping a page leaked into the next one")
	}
	// The recycled page comes back clean.
	recycled := s.events.freePages[0]
	fresh := s.ReserveEvents(evPageSize)
	if s.events.pages[3] != recycled || len(s.events.freePages) != 0 {
		t.Fatal("new page did not come from the free list")
	}
	for i := Event(0); i < evPageSize; i++ {
		if st := &recycled.evs[i]; st.triggered || st.first != nil || st.last != 0 {
			t.Fatalf("recycled slot %d not reset", i)
		}
	}
	if fresh != next+1 {
		t.Errorf("handles not dense across a recycle: %d after %d", fresh, next)
	}
}

// TestReserveAcrossPageBoundary: a reservation straddling pages still
// returns contiguous handles, each an ordinary user event.
func TestReserveAcrossPageBoundary(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	a := s.ReserveEvents(evPageSize - 3) // after the node's fail event
	b := s.ReserveEvents(5)              // two in page 0, three in page 1
	c := s.ReserveEvents(2*evPageSize + 1)
	d := s.NewUserEvent()
	if a != s.NodeFailEvent(0)+1 || b != a+evPageSize-3 || c != b+5 || d != c+2*evPageSize+1 {
		t.Fatalf("handles not contiguous: a=%d b=%d c=%d d=%d", a, b, c, d)
	}
	fired := 0
	for e := b; e < c; e++ {
		if s.Triggered(e) {
			t.Fatalf("reserved event %d born triggered", e)
		}
		s.OnTrigger(e, func() { fired++ })
		s.Trigger(e)
	}
	if fired != 5 || s.Triggered(a) || s.Triggered(c) || s.Triggered(d) {
		t.Fatalf("straddling events misbehaved (fired=%d)", fired)
	}
}

// TestUntriggeredEventPinsOnlyItsPage: an event that never fires (the
// nodes' unfired fail events in page 0, a lost work item's completion in
// page 3) keeps its own page and no other.
func TestUntriggeredEventPinsOnlyItsPage(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	fail0, fail1 := s.NodeFailEvent(0), s.NodeFailEvent(1)
	lost := s.ReserveEvents(10*evPageSize-2) + 3*evPageSize + 100
	for e := Event(1); e <= 10*evPageSize; e++ {
		if e != fail0 && e != fail1 && e != lost {
			s.Trigger(e)
		}
	}
	if s.events.livePages() != 2 || s.events.pages[0] == nil || s.events.pages[3] == nil {
		t.Fatalf("live pages = %d, want only the fail events' page and the lost item's", s.events.livePages())
	}
	for _, pin := range []Event{fail1, lost} {
		if s.Triggered(pin) || !s.Triggered(pin-1) && pin-1 != fail0 || !s.Triggered(pin+1) {
			t.Errorf("page of pinned event %d lost its state", pin)
		}
	}
}

// TestLongTripBoundsEventTable: the table is bounded by the events in
// flight, not the events ever made — a million merge/trigger rounds on one
// Sim never hold more than a few pages.
func TestLongTripBoundsEventTable(t *testing.T) {
	rounds := 1000000
	if testing.Short() {
		rounds = 100000
	}
	s := MustNewSim(smallConfig(1))
	const pinned = 1 // page 0, held by the node's fail event, which never fires
	left, maxLive := rounds, 0
	var step func()
	step = func() {
		if left == 0 {
			return
		}
		if left--; left%1024 == 0 {
			if n := s.events.livePages() - pinned; n > maxLive {
				maxLive = n
			}
		}
		a, c := s.NewUserEvent(), s.NewUserEvent()
		s.OnTrigger(s.Merge(a, c), step)
		s.After(3, func() { s.Trigger(a) })
		s.After(7, func() { s.Trigger(c) })
	}
	step()
	s.MustRun()
	if s.events.n != 3*rounds+1 {
		t.Fatalf("made %d events, want %d and the fail event", s.events.n, 3*rounds)
	}
	if maxLive > 2 || len(s.events.freePages) > 2 {
		t.Errorf("event table grew with the trip: %d live pages at peak, %d free (of %d made)", maxLive, len(s.events.freePages), len(s.events.pages))
	}
}

// TestEventSlotSize: a slot is 16 bytes, so a page of 1024 is 16 KB.
func TestEventSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(eventState{}); n != 16 {
		t.Errorf("eventState is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(evPage{}.evs); n != 16<<10 {
		t.Errorf("a page's slots are %d bytes, want 16 KB", n)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestFreshTableBytes: a fresh table that never has more than one event in
// flight holds one page, its index and a slab of a few waiter nodes, however
// many events it makes — here 1000, each with 3 waiters.
func TestFreshTableBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what is allocated")
	}
	ran := 0
	fn := func() { ran++ }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := new(EventTable)
	for i := 0; i < 1000; i++ {
		e := tab.Reserve(1)
		for k := 0; k < 3; k++ {
			tab.Await(e, fn)
		}
		first, rest, _ := tab.Fire(e)
		first()
		for rest != 0 {
			tab.Next(&rest)()
		}
	}
	runtime.ReadMemStats(&after)
	if ran != 3000 || tab.n != 1000 {
		t.Fatalf("ran %d continuations of %d events, want 3000 of 1000", ran, tab.n)
	}
	// A page is 16 KB of slots, but a heap object with pointers carries an
	// 8-byte type header, which puts the page in the 18 KB size class.
	const page = 18 << 10
	want := page + unsafe.Sizeof((*evPage)(nil)) + 8*unsafe.Sizeof(waiter{}) + 1<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(want) {
		t.Errorf("fresh table allocated %d bytes, want at most %d", got, want)
	}
}

// TestElapseRoundTripAllocs: a steady-state Elapse — work item, completion
// through a later bucket of the queue, wake-up through bucket 0, coroutine
// hand-off both ways — allocates nothing.
func TestElapseRoundTripAllocs(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	avg := -1.0
	s.SpawnOn("t", 0, 0, func(th Agent) {
		for i := 0; i < 2*evPageSize; i++ {
			th.Elapse(1) // warm the pools and the page free list
		}
		avg = testing.AllocsPerRun(1000, func() { th.Elapse(1) })
	})
	s.MustRun()
	if avg != 0 {
		t.Errorf("Elapse round trip allocates %.2f objects, want 0", avg)
	}
}
