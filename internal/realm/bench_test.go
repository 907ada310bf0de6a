package realm

import (
	"fmt"
	"testing"
)

// deferredOps are the DES operations that register on an event that has
// not fired yet. setup prepares one Sim and returns one op: make a pending
// event, register on it, fire it, and drain the queue. *ran counts the
// continuations and completions the op is meant to reach.
var deferredOps = []struct {
	name  string
	setup func(s *Sim, ran *int) (op func())
}{
	{"waiters", func(s *Sim, ran *int) func() {
		fn := func() { *ran++ }
		return func() {
			e := s.NewUserEvent()
			s.OnTrigger(e, fn) // inline in the slot
			s.OnTrigger(e, fn) // a pooled slice
			s.After(5, fn)
			s.Trigger(e)
			s.MustRun()
		}
	}},
	{"launch", func(s *Sim, ran *int) func() {
		return func() {
			pre := s.NewUserEvent()
			done := s.LaunchOn(0, pre, 5, nil)
			s.Trigger(pre)
			s.MustRun()
			if s.Triggered(done) {
				*ran++
			}
		}
	}},
	{"copy", func(s *Sim, ran *int) func() {
		return func() {
			pre := s.NewUserEvent()
			done := s.CopyBytes(0, 1, 64, pre, nil)
			s.Trigger(pre)
			s.MustRun()
			if s.Triggered(done) {
				*ran++
			}
		}
	}},
	{"faults", func(s *Sim, ran *int) func() {
		// Every launch and copy passes the fault injector, and drops,
		// duplicates and stragglers fire on about half of them.
		if err := s.InjectFaults(FaultPlan{Seed: 7, DropRate: 0.5, DupRate: 0.5,
			StragglerRate: 0.5, StragglerFactor: 2}); err != nil {
			panic(err)
		}
		return func() {
			pre := s.NewUserEvent()
			launched := s.LaunchOn(0, pre, 5, nil)
			copied := s.CopyBytes(0, 1, 64, pre, nil)
			s.Trigger(pre)
			s.MustRun()
			if s.Triggered(launched) && s.Triggered(copied) {
				*ran++
			}
		}
	}},
	{"link", func(s *Sim, ran *int) func() {
		return func() {
			pre, e := s.NewUserEvent(), s.NewUserEvent()
			s.TriggerAfter(e, pre)
			if s.Triggered(e) {
				panic("TriggerAfter fired before its precondition")
			}
			s.Trigger(pre)
			if s.Triggered(e) {
				*ran++
			}
		}
	}},
	{"barrier-arrival", func(s *Sim, ran *int) func() {
		bar := s.Barrier(1 << 30) // never completes: every op is one arrival
		return func() {
			pre := s.NewUserEvent()
			bar.Arrive(pre)
			s.Trigger(pre)
			*ran++
		}
	}},
	{"merge", func(s *Sim, ran *int) func() {
		fn := func() { *ran++ }
		return func() {
			a, b := s.NewUserEvent(), s.NewUserEvent()
			s.OnTrigger(s.Merge(a, b), fn)
			s.Trigger(a)
			s.Trigger(b)
		}
	}},
}

// TestScheduleTriggerAllocs pins the allocation behavior of the DES hot
// path: once the pools and the event table are warm, registering on a
// pending event — a continuation, a deferred launch or copy (fault-free
// or under drops, duplicates and stragglers), an event link, a barrier
// arrival, a merge — and firing it must not allocate. This is the
// path every simulated task launch and copy goes through millions of times
// per weak-scaling sweep; a regression here (a closure per registration, a
// per-waiter slice, interface boxing in the event queue) shows up as a
// nonzero average.
func TestScheduleTriggerAllocs(t *testing.T) {
	for _, row := range deferredOps {
		t.Run(row.name, func(t *testing.T) {
			s := MustNewSim(DefaultConfig(2))
			ran := 0
			op := row.setup(s, &ran)
			for i := 0; i < 8; i++ {
				op() // warm the pools
			}
			if avg := testing.AllocsPerRun(200, op); avg > 0 {
				t.Errorf("allocates %.2f objects per op, want 0", avg)
			}
			if ran < 209 {
				t.Fatalf("reached %d of 209 continuations", ran)
			}
		})
	}
}

// BenchmarkDeferredOps measures one registration on a pending event and its
// firing, per kind of deferred operation (run with -benchmem).
func BenchmarkDeferredOps(b *testing.B) {
	for _, row := range deferredOps {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			s := MustNewSim(DefaultConfig(2))
			ran := 0
			op := row.setup(s, &ran)
			op()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
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

// BenchmarkFreshSim measures a small run from scratch: a new Sim, a
// 1000-launch chain whose every launch waits on the merge of the two
// before it, and Run. Most Sims the harness builds are this small, so the
// table's fixed cost (its first page, its waiter slab) shows in B/op.
func BenchmarkFreshSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := MustNewSim(DefaultConfig(2))
		prev, last := NoEvent, NoEvent
		for k := 0; k < 1000; k++ {
			prev, last = last, s.LaunchOn(k%2, s.Merge(prev, last), 1, nil)
		}
		s.MustRun()
	}
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
