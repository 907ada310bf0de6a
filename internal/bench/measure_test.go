package bench

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/rt"
	"repro/internal/spmd"
)

func TestSteadyState(t *testing.T) {
	// Completion times 10, 20, 30, 40: steady per-iteration time is 10
	// regardless of where the warm-up cut falls.
	times := []realm.Time{10, 20, 30, 40}
	got, err := steadyState(times, 1)
	if err != nil {
		t.Fatalf("steadyState: %v", err)
	}
	if got != 10 {
		t.Errorf("steadyState = %d, want 10", got)
	}

	// Warm-up covers a genuinely slow first iteration.
	got, err = steadyState([]realm.Time{100, 110, 120, 130}, 1)
	if err != nil {
		t.Fatalf("steadyState: %v", err)
	}
	if got != 10 {
		t.Errorf("steadyState with slow warm-up = %d, want 10", got)
	}
}

func TestSteadyStateTooFewIterations(t *testing.T) {
	if _, err := steadyState([]realm.Time{10}, 0); err == nil {
		t.Error("steadyState with 1 sample: want error, got nil")
	}
	if _, err := steadyState(nil, 0); err == nil {
		t.Error("steadyState with 0 samples: want error, got nil")
	}
}

func TestSteadyStateWarmupConsumesSamples(t *testing.T) {
	// Two iterations with one warm-up iteration leaves a single sample;
	// this must be a loud error, not a silent measurement from iteration 0.
	_, err := steadyState([]realm.Time{10, 20}, 1)
	if err == nil {
		t.Fatal("steadyState with warm-up consuming all but one sample: want error, got nil")
	}
	if !strings.Contains(err.Error(), "warm-up") {
		t.Errorf("error %q does not mention warm-up", err)
	}

	// Boundary: warm-up leaving exactly two samples is fine.
	got, err := steadyState([]realm.Time{7, 20, 30}, 1)
	if err != nil {
		t.Fatalf("steadyState leaving 2 samples: %v", err)
	}
	if got != 10 {
		t.Errorf("steadyState = %d, want 10", got)
	}
}

func TestWarmup(t *testing.T) {
	for _, tc := range []struct{ trip, want int }{
		{1, 1}, {2, 1}, {3, 1}, {4, 1}, {8, 2}, {10, 2}, {12, 3}, {100, 25},
	} {
		if got := warmup(tc.trip); got != tc.want {
			t.Errorf("warmup(%d) = %d, want %d", tc.trip, got, tc.want)
		}
	}
}

func TestNilCountersRecordNothing(t *testing.T) {
	var c *Counters
	c.Add("x", 1)
	c.addRT(rt.TraceStats{CaptureIters: 1})
	c.addSPMD(spmd.TraceStats{Captures: 1})
	c.addSched(native.SchedStats{Workers: 1})
	if got := c.Snapshot(); len(got) != 0 {
		t.Errorf("nil table holds %v", got)
	}
}

func TestCountersConcurrentAddsSumExactly(t *testing.T) {
	const goroutines, adds = 8, 1000
	var c Counters
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add("shared", 1)
				c.addSched(native.SchedStats{Workers: g, Steals: 2})
			}
		}()
	}
	wg.Wait()
	got := c.Snapshot()
	if got["shared"] != goroutines*adds || got["native.steals"] != 2*goroutines*adds {
		t.Errorf("shared = %d, native.steals = %d; want %d, %d", got["shared"], got["native.steals"], goroutines*adds, 2*goroutines*adds)
	}
	if got["native.workers"] != goroutines-1 {
		t.Errorf("native.workers = %d, want the largest pool seen, %d", got["native.workers"], goroutines-1)
	}
	got["shared"] = -1
	if c.Snapshot()["shared"] != goroutines*adds {
		t.Error("Snapshot returned the table itself, not a copy")
	}
}

// TestAddersCarryEveryEngineCounter: each adder emits one name per exported
// numeric field of the stats struct it reads, so a counter added to an
// engine cannot be dropped on the way to the table.
func TestAddersCarryEveryEngineCounter(t *testing.T) {
	numericFields := func(v any) int {
		n, typ := 0, reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if k := typ.Field(i).Type.Kind(); typ.Field(i).IsExported() && k >= reflect.Int && k <= reflect.Float64 {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		prefix string
		stats  any
		add    func(c *Counters)
	}{
		{"rt.", rt.TraceStats{}, func(c *Counters) { c.addRT(rt.TraceStats{}) }},
		{"spmd.", spmd.TraceStats{}, func(c *Counters) { c.addSPMD(spmd.TraceStats{}) }},
		{"native.", native.SchedStats{}, func(c *Counters) { c.addSched(native.SchedStats{}) }},
	} {
		var c Counters
		tc.add(&c)
		got := c.Snapshot()
		for name := range got {
			if !strings.HasPrefix(name, tc.prefix) {
				t.Errorf("%T's adder emits %q, want the prefix %q", tc.stats, name, tc.prefix)
			}
		}
		if want := numericFields(tc.stats); len(got) != want {
			t.Errorf("%T has %d exported numeric fields, its adder emits %d names: %v", tc.stats, want, len(got), got)
		}
	}
}
