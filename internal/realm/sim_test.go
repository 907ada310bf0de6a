package realm

import "testing"

func smallConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.CoresPerNode = 2
	return cfg
}

func TestEventBasics(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	e := s.NewUserEvent()
	if s.Triggered(e) {
		t.Fatal("fresh event should be untriggered")
	}
	fired := false
	s.OnTrigger(e, func() { fired = true })
	s.Trigger(e)
	if !fired || !s.Triggered(e) {
		t.Fatal("trigger should run continuations")
	}
	// Registering on a triggered event fires immediately.
	again := false
	s.OnTrigger(e, func() { again = true })
	if !again {
		t.Fatal("OnTrigger on fired event should run immediately")
	}
	if !s.Triggered(NoEvent) {
		t.Fatal("NoEvent is always triggered")
	}
}

func TestTriggerTwicePanics(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	e := s.NewUserEvent()
	s.Trigger(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Trigger(e)
}

func TestMerge(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	a, b := s.NewUserEvent(), s.NewUserEvent()
	m := s.Merge(a, b, NoEvent)
	if s.Triggered(m) {
		t.Fatal("merge should wait for all inputs")
	}
	s.Trigger(a)
	if s.Triggered(m) {
		t.Fatal("merge fired early")
	}
	s.Trigger(b)
	if !s.Triggered(m) {
		t.Fatal("merge should fire after all inputs")
	}
	if s.Merge(NoEvent, NoEvent) != NoEvent {
		t.Fatal("merge of triggered events is NoEvent")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	var tAt Time
	s.After(Microseconds(10), func() { tAt = s.Now() })
	end := s.MustRun()
	if tAt != Microseconds(10) {
		t.Errorf("callback at %v, want 10us", tAt)
	}
	if end != Microseconds(10) {
		t.Errorf("end time %v", end)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(Microseconds(5), func() { order = append(order, i) })
	}
	s.MustRun()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time ran out of order: %v", order)
		}
	}
}

func TestProcFIFOSerialization(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	p := s.nodes[0].procs[0]
	var times []Time
	s.OnTrigger(p.launch(Microseconds(10)), func() { times = append(times, s.Now()) })
	s.OnTrigger(p.launch(Microseconds(5)), func() { times = append(times, s.Now()) })
	s.MustRun()
	if len(times) != 2 || times[0] != Microseconds(10) || times[1] != Microseconds(15) {
		t.Errorf("times = %v, want [10us 15us]", times)
	}
}

func TestLaunchWaitsForPrecondition(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	gate := s.NewUserEvent()
	var ran Time = -1
	s.LaunchOn(0, gate, Microseconds(1), func() { ran = s.Now() })
	s.After(Microseconds(100), func() { s.Trigger(gate) })
	s.MustRun()
	if ran != Microseconds(101) {
		t.Errorf("task ran at %v, want 101us", ran)
	}
}

func TestLaunchAutoBalances(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	// 4 equal tasks on 2 cores should finish in 2 task-times, not 4.
	var done []Time
	for i := 0; i < 4; i++ {
		s.LaunchOn(0, NoEvent, Microseconds(10), func() { done = append(done, s.Now()) })
	}
	end := s.MustRun()
	if end != Microseconds(20) {
		t.Errorf("end = %v, want 20us on 2 cores", end)
	}
	if len(done) != 4 {
		t.Errorf("ran %d tasks", len(done))
	}
}

func TestCopyRemoteChargesLatencyAndBandwidth(t *testing.T) {
	cfg := smallConfig(2)
	cfg.NetLatency = Microseconds(2)
	cfg.NetBandwidth = 1 // 1 byte/ns
	s := MustNewSim(cfg)
	var arrive Time
	s.CopyBytes(0, 1, 1000, NoEvent, func() { arrive = s.Now() })
	s.MustRun()
	want := Microseconds(2) + Time(1000)
	if arrive != want {
		t.Errorf("arrival %v, want %v", arrive, want)
	}
	st := s.Stats()
	if st.Messages != 1 || st.BytesSent != 1000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCopyLinkSerialization(t *testing.T) {
	cfg := smallConfig(3)
	cfg.NetLatency = 0
	cfg.NetBandwidth = 1
	s := MustNewSim(cfg)
	var t1, t2 Time
	// Two copies out of node 0 serialize on its link.
	s.CopyBytes(0, 1, 1000, NoEvent, func() { t1 = s.Now() })
	s.CopyBytes(0, 2, 1000, NoEvent, func() { t2 = s.Now() })
	s.MustRun()
	if t1 != Time(1000) || t2 != Time(2000) {
		t.Errorf("arrivals %v %v, want 1000ns 2000ns", t1, t2)
	}
}

func TestCopyLocalCheap(t *testing.T) {
	cfg := smallConfig(1)
	cfg.LocalLatency = Microseconds(0.1)
	cfg.LocalBW = 100
	s := MustNewSim(cfg)
	var at Time
	s.CopyBytes(0, 0, 10000, NoEvent, func() { at = s.Now() })
	s.MustRun()
	want := Microseconds(0.1) + Time(100)
	if at != want {
		t.Errorf("local copy at %v, want %v", at, want)
	}
	if s.Stats().Messages != 0 || s.Stats().LocalCopies != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestThreadElapseAndWait(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	var checkpoints []Time
	s.SpawnOn("main", 0, 0, func(th Agent) {
		checkpoints = append(checkpoints, th.Now())
		th.Elapse(Microseconds(10))
		checkpoints = append(checkpoints, th.Now())
		done := s.LaunchOn(0, NoEvent, Microseconds(5), nil)
		th.WaitEvent(done)
		checkpoints = append(checkpoints, th.Now())
		th.Sleep(Microseconds(100))
		checkpoints = append(checkpoints, th.Now())
	})
	s.MustRun()
	want := []Time{0, Microseconds(10), Microseconds(15), Microseconds(115)}
	if len(checkpoints) != len(want) {
		t.Fatalf("checkpoints = %v", checkpoints)
	}
	for i := range want {
		if checkpoints[i] != want[i] {
			t.Errorf("checkpoint %d = %v, want %v", i, checkpoints[i], want[i])
		}
	}
}

func TestTwoThreadsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := MustNewSim(smallConfig(2))
		var log []string
		for i := 0; i < 2; i++ {
			i := i
			name := []string{"a", "b"}[i]
			s.SpawnOn(name, i, 0, func(th Agent) {
				for step := 0; step < 3; step++ {
					th.Elapse(Microseconds(float64(1 + i)))
					log = append(log, name)
				}
			})
		}
		s.MustRun()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("non-deterministic length")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("non-deterministic interleaving: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestThreadMessagePingPong(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	ready := s.NewUserEvent()
	reply := s.NewUserEvent()
	var order []string
	s.SpawnOn("sender", 0, 0, func(th Agent) {
		ev := s.CopyBytes(0, 1, 8, NoEvent, func() { order = append(order, "deliver") })
		s.OnTrigger(ev, func() { s.Trigger(ready) })
		th.WaitEvent(reply)
		order = append(order, "got-reply")
	})
	s.SpawnOn("receiver", 1, 0, func(th Agent) {
		th.WaitEvent(ready)
		order = append(order, "received")
		ev := s.CopyBytes(1, 0, 8, NoEvent, nil)
		s.OnTrigger(ev, func() { s.Trigger(reply) })
	})
	s.MustRun()
	want := []string{"deliver", "received", "got-reply"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBarrier(t *testing.T) {
	s := MustNewSim(smallConfig(4))
	b := s.Barrier(4)
	count := 0
	for i := 0; i < 4; i++ {
		i := i
		s.SpawnOn("t", i, 0, func(th Agent) {
			th.Elapse(Microseconds(float64(i * 10)))
			b.Arrive(NoEvent)
			th.WaitEvent(b.Done())
			count++
			if th.Now() < Microseconds(30) {
				t.Errorf("thread released before last arrival: %v", th.Now())
			}
		})
	}
	s.MustRun()
	if count != 4 {
		t.Errorf("released %d threads", count)
	}
}

func TestCollectiveDeterministicFold(t *testing.T) {
	s := MustNewSim(smallConfig(3))
	c := s.Collective(3, 0, func(a, v float64) float64 { return a + v })
	// Contribute out of order in time; result must fold in index order.
	vals := []float64{1, 2, 4}
	delays := []Time{Microseconds(30), Microseconds(10), Microseconds(20)}
	for i := 0; i < 3; i++ {
		i := i
		gate := s.NewUserEvent()
		s.After(delays[i], func() { s.Trigger(gate) })
		c.Contribute(i, gate, func() float64 { return vals[i] })
	}
	var got float64
	s.OnTrigger(c.Done(), func() { got = c.Result() })
	s.MustRun()
	if got != 7 {
		t.Errorf("result = %v", got)
	}
}

func TestCollectiveMin(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	c := s.Collective(2, 1e300, func(a, v float64) float64 {
		if v < a {
			return v
		}
		return a
	})
	c.Contribute(0, NoEvent, func() float64 { return 5 })
	c.Contribute(1, NoEvent, func() float64 { return 3 })
	s.MustRun()
	if !s.Triggered(c.Done()) || c.Result() != 3 {
		t.Errorf("min = %v", c.Result())
	}
}

func TestCollectiveLatencyModel(t *testing.T) {
	cfg := smallConfig(8)
	cfg.HopLatency = Microseconds(1)
	s := MustNewSim(cfg)
	if got := s.CollectiveLatency(1); got != 0 {
		t.Errorf("1-node collective latency = %v", got)
	}
	if got := s.CollectiveLatency(8); got != Microseconds(3) {
		t.Errorf("8-node collective latency = %v, want 3us", got)
	}
	if got := s.CollectiveLatency(1024); got != Microseconds(10) {
		t.Errorf("1024-node collective latency = %v, want 10us", got)
	}
}
