package realm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeHelpers(t *testing.T) {
	if Nanoseconds(5) != Time(5) {
		t.Error("Nanoseconds")
	}
	if Microseconds(2.5) != Time(2500) {
		t.Error("Microseconds")
	}
	if Milliseconds(1.5) != Time(1500000) {
		t.Error("Milliseconds")
	}
	if SecondsT(0.25) != Time(250000000) {
		t.Error("SecondsT")
	}
	if SecondsT(2).Seconds() != 2 {
		t.Error("Seconds roundtrip")
	}
	if Microseconds(7).Microseconds() != 7 {
		t.Error("Microseconds roundtrip")
	}
}

func TestBadConfigErrors(t *testing.T) {
	bad := []Config{
		{Nodes: 0, CoresPerNode: 1, NetBandwidth: 1, LocalBW: 1},
		{Nodes: 1, CoresPerNode: 0, NetBandwidth: 1, LocalBW: 1},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: 0, LocalBW: 1},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: -2, LocalBW: 1},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: 1, LocalBW: 0},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: 1, LocalBW: 1, NetLatency: -1},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: 1, LocalBW: 1, LocalLatency: -1},
		{Nodes: 1, CoresPerNode: 1, NetBandwidth: 1, LocalBW: 1, HopLatency: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("config %d (%+v): want error, got nil", i, cfg)
		}
	}
	if _, err := NewSim(smallConfig(1)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewSimPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-node config")
		}
	}()
	MustNewSim(Config{Nodes: 0, CoresPerNode: 1})
}

func TestCopyZeroBytes(t *testing.T) {
	cfg := smallConfig(2)
	cfg.NetLatency = Microseconds(3)
	s := MustNewSim(cfg)
	var at Time
	s.CopyBytes(0, 1, 0, NoEvent, func() { at = s.Now() })
	s.MustRun()
	if at != Microseconds(3) {
		t.Errorf("zero-byte copy should cost pure latency, got %v", at)
	}
}

func TestSpawnFromWithinThread(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	var order []string
	s.SpawnOn("outer", 0, 0, func(th Agent) {
		th.Elapse(Microseconds(5))
		order = append(order, "outer-mid")
		s.SpawnOn("inner", 1, 0, func(in Agent) {
			in.Elapse(Microseconds(5))
			order = append(order, "inner-done")
		})
		th.Elapse(Microseconds(10))
		order = append(order, "outer-done")
	})
	s.MustRun()
	want := []string{"outer-mid", "inner-done", "outer-done"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMergeNoInputs(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	if s.Merge() != NoEvent {
		t.Error("empty merge should be NoEvent")
	}
}

func TestThreadSleepDoesNotOccupyProc(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	p := s.nodes[0].procs[0]
	var taskAt Time
	s.SpawnOn("sleeper", 0, 0, func(th Agent) {
		// While the thread sleeps, a task on the same proc should run.
		s.OnTrigger(p.launch(Microseconds(10)), func() { taskAt = s.Now() })
		th.Sleep(Microseconds(100))
	})
	s.MustRun()
	if taskAt != Microseconds(10) {
		t.Errorf("task ran at %v; sleeping thread must not hold the processor", taskAt)
	}
}

func TestCollectiveDuplicateContributionPanics(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	c := s.Collective(2, 0, func(a, v float64) float64 { return a + v })
	c.Contribute(0, NoEvent, func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate contribution")
		}
	}()
	c.Contribute(0, NoEvent, func() float64 { return 2 })
}

func TestSpikeNoise(t *testing.T) {
	n := SpikeNoise(0.5, 0.3, 1)
	spikes := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		f := n(i%64, i/64)
		switch f {
		case 1.3:
			spikes++
		case 1.0:
		default:
			t.Fatalf("unexpected factor %v", f)
		}
	}
	frac := float64(spikes) / trials
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("spike fraction %.3f, want ~0.5", frac)
	}
	// Deterministic.
	if n(3, 7) != SpikeNoise(0.5, 0.3, 1)(3, 7) {
		t.Error("noise not deterministic")
	}
	// Different salts decorrelate.
	n2 := SpikeNoise(0.5, 0.3, 2)
	same := 0
	for i := 0; i < 200; i++ {
		if n(i, 0) == n2(i, 0) {
			same++
		}
	}
	if same == 200 {
		t.Error("different salts produced identical spike placement")
	}
	if SpikeNoise(0, 0.3, 1) != nil || SpikeNoise(0.1, 0, 1) != nil {
		t.Error("degenerate noise should be nil")
	}
}

// Property: collective result equals a sequential fold of the contributed
// values in index order.
func TestCollectiveFoldProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 || len(vals) > 32 {
			return true
		}
		s := MustNewSim(smallConfig(1))
		c := s.Collective(len(vals), 0, func(a, v float64) float64 { return a + v })
		// Contribute in reverse order; fold must still be index order.
		for i := len(vals) - 1; i >= 0; i-- {
			i := i
			c.Contribute(i, NoEvent, func() float64 { return vals[i] })
		}
		s.MustRun()
		want := 0.0
		for _, v := range vals {
			want += v
		}
		return c.Result() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	never := s.NewUserEvent()
	s.SpawnOn("stuck", 0, 0, func(th Agent) {
		th.WaitEvent(never) // never triggered
	})
	_, err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if len(derr.Blocked) != 1 || derr.Blocked[0].Name != "stuck" {
		t.Errorf("blocked threads = %+v, want the thread named \"stuck\"", derr.Blocked)
	}
	if derr.Blocked[0].Waiting != never {
		t.Errorf("blocked on event %d, want %d", derr.Blocked[0].Waiting, never)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Errorf("deadlock message should name the blocked thread: %v", err)
	}
}
