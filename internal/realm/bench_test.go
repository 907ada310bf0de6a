package realm

import (
	"fmt"
	"testing"
)

// TestScheduleTriggerAllocs pins the allocation behavior of the DES hot
// path: once the waiter pool and the pre-sized event table are warm,
// creating a user event, registering a continuation, scheduling a timer,
// and triggering must not allocate. This is the path every simulated task
// launch and copy goes through millions of times per weak-scaling sweep; a
// regression here (e.g. reintroducing per-waiter slice allocations or
// interface boxing in the event queue) shows up as a nonzero average.
func TestScheduleTriggerAllocs(t *testing.T) {
	s := MustNewSim(DefaultConfig(1))
	sink := 0
	fn := func() { sink++ }

	// Warm the waiter pool with one trip through the path.
	e0 := s.NewUserEvent()
	s.OnTrigger(e0, fn)
	s.Trigger(e0)

	avg := testing.AllocsPerRun(200, func() {
		e := s.NewUserEvent()
		s.OnTrigger(e, fn)
		s.After(5, fn)
		s.Trigger(e)
	})
	if avg > 0 {
		t.Errorf("schedule/trigger path allocates %.2f objects per op, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("continuations never ran")
	}
}

// BenchmarkSimEventThroughput measures raw DES event throughput on the
// pattern the runtime engines generate: user events merged pairwise, timer
// callbacks triggering them, and a continuation chaining the next round.
// Run with -benchmem to watch the per-event allocation count.
func BenchmarkSimEventThroughput(b *testing.B) {
	b.ReportAllocs()
	s := MustNewSim(DefaultConfig(1))
	left := b.N
	var step func()
	step = func() {
		if left == 0 {
			return
		}
		left--
		a := s.NewUserEvent()
		c := s.NewUserEvent()
		s.OnTrigger(s.Merge(a, c), step)
		s.After(3, func() { s.Trigger(a) })
		s.After(7, func() { s.Trigger(c) })
	}
	step()
	s.MustRun()
}

// BenchmarkThreadHandoff measures the cost of suspending and resuming a
// simulated thread: 16 threads on 16 processors each Elapse(1) in a loop,
// so one op is one Elapse — a work item, its completion, a wake-up and a
// hand-off to the scheduler and back.
func BenchmarkThreadHandoff(b *testing.B) {
	b.ReportAllocs()
	const threads = 16
	cfg := DefaultConfig(1)
	cfg.CoresPerNode = threads
	s := MustNewSim(cfg)
	for i := 0; i < threads; i++ {
		n := b.N / threads
		if i < b.N%threads {
			n++
		}
		s.SpawnOn("t", 0, i, func(t Agent) {
			for ; n > 0; n-- {
				t.Elapse(1)
			}
		})
	}
	b.ResetTimer()
	s.MustRun()
}

// BenchmarkQueue measures the event queue alone at three occupancies — the
// implicit runtime's (2 items), a shard's (16) and a rank-per-core MPI
// baseline's at 256 nodes (16384). One op pops the earliest item and pushes
// it back a pseudo-random delay later, so the occupancy holds.
func BenchmarkQueue(b *testing.B) {
	for _, n := range []int{2, 16, 16384} {
		b.Run(fmt.Sprintf("%d-items", n), func(b *testing.B) {
			q := eventQueue{slab: make([]queued, 1, 1024)}
			x := uint64(1)
			delay := func() Time {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return Time(1 + x%4096)
			}
			for i := 0; i < n; i++ {
				q.push(queued{at: delay()})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := q.pop()
				it.at += delay()
				q.push(it)
			}
		})
	}
}
