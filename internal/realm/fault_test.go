package realm

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFaultPlanValidate checks the plan validator against its documented
// ranges.
func TestFaultPlanValidate(t *testing.T) {
	cfg := DefaultConfig(4)
	bad := []FaultPlan{
		{CrashRate: -1},
		{CrashRate: 1.5},  // a per-launch probability
		{CrashRate: 2000}, // the old per-second rate reads as a probability > 1
		{CrashRate: math.NaN()},
		{DropRate: -0.1},
		{DropRate: 0.95},
		{DupRate: 1.5},
		{StragglerRate: -0.2},
		{StragglerRate: 0.5},                       // rate without a factor > 1
		{StragglerRate: 0.5, StragglerFactor: 0.5}, // factor <= 1
		{RetransmitTimeout: -1},
		{LaunchCrashes: []LaunchCrash{{Node: 4, AtLaunch: 1}}}, // out of range
		{LaunchCrashes: []LaunchCrash{{Node: 1, AtLaunch: 0}}}, // AtLaunch is 1-based
		{CopyCrashes: []CopyCrash{{Node: -1, AtCopy: 1}}},      // out of range
		{CopyCrashes: []CopyCrash{{Node: 1, AtCopy: 0}}},       // AtCopy is 1-based
	}
	for i, fp := range bad {
		if err := fp.Validate(cfg); err == nil {
			t.Errorf("plan %d (%+v): want validation error", i, fp)
		}
	}
	good := FaultPlan{Seed: 7, CrashRate: 1, DropRate: 0.1, DupRate: 0.1,
		StragglerRate: 0.2, StragglerFactor: 3, CopyCrashes: []CopyCrash{{Node: 3, AtCopy: 100}},
		LaunchCrashes: []LaunchCrash{{Node: 2, AtLaunch: 37}}}
	if err := good.Validate(cfg); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (&FaultPlan{CrashRate: 2000}).Validate(cfg); err == nil || !strings.Contains(err.Error(), "per-launch crash probability") {
		t.Errorf("CrashRate 2000: err = %v, want it named a per-launch crash probability", err)
	}
}

// TestFaultPlanValidateRejectsNonFinite: NaN fails every range check (it
// used to pass each one, and a NaN CrashRate then never crashed anything),
// and the rate and the factor that scale a quantity must be finite.
func TestFaultPlanValidateRejectsNonFinite(t *testing.T) {
	cfg := DefaultConfig(4)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, fp := range []FaultPlan{
			{CrashRate: v},
			{DropRate: v},
			{DupRate: v},
			{StragglerRate: v, StragglerFactor: 2},
			{StragglerRate: 0.5, StragglerFactor: v},
			{StragglerFactor: v},
		} {
			if err := fp.Validate(cfg); err == nil {
				t.Errorf("plan %d with %v: want validation error", i, v)
			}
		}
	}
}

// TestLaunchCrashAtLogicalPoint pins the DES half of the logical-point
// crash schedule: the node dies at the issue of its AtLaunch-th launch,
// the crashing launch itself is lost, and earlier launches are untouched.
// With serialized issues the executed-body count is exact — the property
// that makes "node 1 dies at its 3rd launch" mean the same schedule point
// on every backend.
func TestLaunchCrashAtLogicalPoint(t *testing.T) {
	s := MustNewSim(DefaultConfig(2))
	err := s.InjectFaults(FaultPlan{
		// Of two entries for one node the earlier fires; the later then
		// finds the node dead.
		LaunchCrashes: []LaunchCrash{{Node: 1, AtLaunch: 4}, {Node: 1, AtLaunch: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	s.SpawnOn("issuer", 0, 0, func(th Agent) {
		for k := 0; k < 5; k++ {
			done := s.LaunchOn(1, NoEvent, Microseconds(5), func() { ran++ })
			if s.NodeFailed(1) {
				break // the launch was lost; its event will never fire
			}
			th.WaitEvent(done)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("%d bodies executed, want exactly 2 (the crash precedes launch 3)", ran)
	}
	if got := s.Crashes(); len(got) != 1 || got[0].Node != 1 {
		t.Errorf("crash log = %+v, want one crash of node 1", got)
	}
	if !s.Triggered(s.NodeFailEvent(1)) {
		t.Error("FailEvent of the crashed node should have fired")
	}
	if s.FaultStats().Crashes != 1 {
		t.Errorf("FaultStats.Crashes = %d, want 1", s.FaultStats().Crashes)
	}
}

// TestInjectFaultsOnce checks that a second plan is refused.
func TestInjectFaultsOnce(t *testing.T) {
	s := MustNewSim(DefaultConfig(2))
	if err := s.InjectFaults(FaultPlan{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFaults(FaultPlan{Seed: 2}); err == nil {
		t.Fatal("second InjectFaults should fail")
	}
}

// TestCrashKillsNodeWork: a planned crash kills the threads on the node,
// drops its in-flight tasks, and still lets the run finish cleanly —
// killed threads and lost work must not deadlock the simulation.
func TestCrashKillsNodeWork(t *testing.T) {
	s := MustNewSim(DefaultConfig(2))
	if err := s.InjectFaults(FaultPlan{LaunchCrashes: []LaunchCrash{{Node: 1, AtLaunch: 5}}}); err != nil {
		t.Fatal(err)
	}
	victimSteps, survivorSteps, longRan := 0, 0, false
	step := func(node int, steps *int) func(Agent) {
		return func(th Agent) {
			for i := 0; i < 10; i++ {
				th.WaitEvent(s.LaunchOn(node, NoEvent, Microseconds(20), nil))
				*steps++
			}
		}
	}
	s.SpawnOn("victim", 1, 0, func(th Agent) {
		// Launch 1, still running when launch 5 crashes the node.
		s.LaunchOn(1, NoEvent, Milliseconds(1), func() { longRan = true })
		step(1, &victimSteps)(th)
	})
	s.SpawnOn("survivor", 0, 0, step(0, &survivorSteps))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if survivorSteps != 10 {
		t.Errorf("survivor ran %d of 10 steps", survivorSteps)
	}
	if victimSteps != 3 {
		t.Errorf("victim ran %d steps, want 3 (launches 2-4; launch 5 crashes node 1)", victimSteps)
	}
	if longRan {
		t.Error("the in-flight launch of the crashed node completed")
	}
	if !s.NodeFailed(1) || s.NodeFailed(0) {
		t.Errorf("failed flags wrong: node0=%v node1=%v", s.NodeFailed(0), s.NodeFailed(1))
	}
	if got := s.Crashes(); len(got) != 1 || got[0].Node != 1 {
		t.Errorf("crash log = %+v, want one crash of node 1", got)
	}
	if !s.Triggered(s.NodeFailEvent(1)) {
		t.Error("FailEvent of the crashed node should have fired")
	}
}

// TestCrashDropsTraffic: copies into and out of a dead node never deliver,
// and the copy a CopyCrash names is lost with its node.
func TestCrashDropsTraffic(t *testing.T) {
	s := MustNewSim(DefaultConfig(3))
	if err := s.InjectFaults(FaultPlan{CopyCrashes: []CopyCrash{{Node: 1, AtCopy: 1}}}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	s.SpawnOn("ctl", 0, 0, func(th Agent) {
		s.CopyBytes(0, 1, 1024, NoEvent, func() { delivered++ }) // node 1's first copy: the crash point
		s.CopyBytes(1, 2, 1024, NoEvent, func() { delivered++ })
		ok := s.CopyBytes(0, 2, 1024, NoEvent, func() { delivered++ })
		th.WaitEvent(ok)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d copies, want only the live-to-live one", delivered)
	}
	if got := s.Crashes(); len(got) != 1 || got[0].Node != 1 {
		t.Errorf("crash log = %+v, want one crash of node 1", got)
	}
}

// TestKillUnblocksWaiter: killing a thread parked on an event retires it
// without wedging the scheduler, and the event can still fire later.
func TestKillUnblocksWaiter(t *testing.T) {
	s := MustNewSim(DefaultConfig(1))
	ev := s.NewUserEvent()
	reached := false
	th := s.SpawnOn("waiter", 0, 0, func(th Agent) {
		th.WaitEvent(ev)
		reached = true
	})
	s.After(Microseconds(10), func() { s.KillAgent(th) })
	s.After(Microseconds(20), func() { s.Trigger(ev) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Error("killed thread ran past its wait")
	}
}

// faultTrafficRun drives a fixed communication pattern under a plan and
// returns (stats, faultStats, crashes).
func faultTrafficRun(t *testing.T, fp FaultPlan) (Stats, FaultStats, []NodeCrash) {
	t.Helper()
	s := MustNewSim(DefaultConfig(4))
	if err := s.InjectFaults(fp); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		n := n
		s.SpawnOn("rank", n, 0, func(th Agent) {
			for i := 0; i < 20; i++ {
				th.WaitEvent(s.LaunchOn(n, NoEvent, Microseconds(5), nil))
				th.WaitEvent(s.CopyBytes(n, (n+1)%4, 4096, NoEvent, nil))
			}
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s.Stats(), s.FaultStats(), s.Crashes()
}

// TestFaultDeterminism: the same seed gives byte-identical stats, fault
// counts, and crash logs; a different seed gives a different schedule.
func TestFaultDeterminism(t *testing.T) {
	fp := FaultPlan{Seed: 99, DropRate: 0.2, DupRate: 0.1, StragglerRate: 0.3, StragglerFactor: 4}
	st1, fs1, cr1 := faultTrafficRun(t, fp)
	st2, fs2, cr2 := faultTrafficRun(t, fp)
	if st1 != st2 || fs1 != fs2 || !reflect.DeepEqual(cr1, cr2) {
		t.Errorf("same seed diverged:\n%+v %+v %+v\n%+v %+v %+v", st1, fs1, cr1, st2, fs2, cr2)
	}
	if fs1.Drops == 0 || fs1.Dups == 0 || fs1.Stragglers == 0 {
		t.Errorf("expected some of every fault kind, got %+v", fs1)
	}
	fp.Seed = 100
	st3, fs3, _ := faultTrafficRun(t, fp)
	if st1 == st3 && fs1 == fs3 {
		t.Errorf("different seeds gave identical stats %+v / %+v", st1, fs1)
	}
}

// TestDropsDelayAndRecount: every drop retransmits — the payload is
// eventually delivered but later, and the wire carries the payload again.
func TestDropsDelayAndRecount(t *testing.T) {
	clean, _, _ := faultTrafficRun(t, FaultPlan{Seed: 5})
	faulty, fs, _ := faultTrafficRun(t, FaultPlan{Seed: 5, DropRate: 0.3})
	if fs.Drops == 0 {
		t.Fatal("expected drops at rate 0.3")
	}
	if faulty.BytesSent != clean.BytesSent+4096*fs.Drops {
		t.Errorf("BytesSent = %d, want clean %d + %d retransmissions x 4096",
			faulty.BytesSent, clean.BytesSent, fs.Drops)
	}
	if faulty.Messages != clean.Messages+fs.Drops {
		t.Errorf("Messages = %d, want clean %d + %d", faulty.Messages, clean.Messages, fs.Drops)
	}
}

// TestRandomCrashesAreSeeded: CrashRate is a per-launch probability —
// each rank's launches are the crash points, the crash set is the one
// LaunchFault predicts from them, the same seed gives the same crash log,
// node 0 is spared without opt-in, and dead nodes never hang the run.
func TestRandomCrashesAreSeeded(t *testing.T) {
	const launches = 20
	run := func(fp FaultPlan) []NodeCrash {
		s := MustNewSim(DefaultConfig(4))
		if err := s.InjectFaults(fp); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 4; n++ {
			n := n
			s.SpawnOn("rank", n, 0, func(th Agent) {
				for i := 0; i < launches; i++ {
					th.WaitEvent(s.LaunchOn(n, NoEvent, Microseconds(5), nil))
				}
			})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Crashes()
	}
	fp := FaultPlan{Seed: 13, CrashRate: 0.05}
	cr1 := run(fp)
	cr2 := run(fp)
	if len(cr1) == 0 {
		t.Fatal("expected at least one random crash")
	}
	if !reflect.DeepEqual(cr1, cr2) {
		t.Errorf("crash logs diverged under one seed:\n%+v\n%+v", cr1, cr2)
	}
	var want, got []int
	for n := 0; n < 4; n++ {
		for k := uint64(1); k <= launches; k++ {
			if crash, _ := fp.LaunchFault(n, k); crash {
				want = append(want, n)
				break
			}
		}
	}
	for _, c := range cr1 {
		got = append(got, c.Node)
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crashed nodes %v, LaunchFault predicts %v", got, want)
	}
	for _, c := range cr1 {
		if c.Node == 0 {
			t.Errorf("random crash hit node 0 without CrashNode0: %+v", c)
		}
	}
}

// TestCrashTraceEvents: crashes are visible in the Chrome trace output.
func TestCrashTraceEvents(t *testing.T) {
	s := MustNewSim(DefaultConfig(2))
	tr := NewTracer()
	s.SetTracer(tr)
	if err := s.InjectFaults(FaultPlan{LaunchCrashes: []LaunchCrash{{Node: 1, AtLaunch: 1}}}); err != nil {
		t.Fatal(err)
	}
	s.SpawnOn("w", 0, 0, func(th Agent) {
		s.LaunchOn(1, NoEvent, Microseconds(5), nil)
		th.Elapse(Microseconds(10))
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Crashes() != 1 {
		t.Fatalf("tracer recorded %d crashes, want 1", tr.Crashes())
	}
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"crash"`) {
		t.Error("Chrome trace is missing the crash instant event")
	}
}
