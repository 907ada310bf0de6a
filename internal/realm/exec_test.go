package realm

import (
	"fmt"
	"strings"
	"testing"
)

// TestRunControlErrors pins the control driver's three failure texts: a
// panic in the control body, a panic in a work item the DES runs inside
// Drive, and a control agent killed with node 0.
func TestRunControlErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		crashes []LaunchCrash
		body    func(x Exec, a Agent)
		want    string
	}{
		{"body panic", nil, func(x Exec, a Agent) { panic("boom") }, "eng: boom"},
		{"kernel panic", nil, func(x Exec, a Agent) {
			a.WaitEvent(x.LaunchOn(1, NoEvent, 5, func() { panic("boom") }))
		}, "eng: task execution panicked: boom"},
		{"node 0 crash", []LaunchCrash{{Node: 0, AtLaunch: 1}}, func(x Exec, a Agent) {
			a.WaitEvent(x.LaunchOn(0, NoEvent, 10, nil))
		},
			"eng: control thread was killed (node 0 crashed) before the program completed"},
		{"clean", nil, func(x Exec, a Agent) { a.Elapse(10) }, "<nil>"},
	} {
		x := MustNewSim(smallConfig(2))
		if err := x.InjectFaults(FaultPlan{LaunchCrashes: tc.crashes}); err != nil {
			t.Fatal(err)
		}
		_, err := RunControl(x, "eng", "ctl", func(a Agent) { tc.body(x, a) })
		if fmt.Sprint(err) != tc.want {
			t.Errorf("%s: err = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestSetTimePolicy pins the engine/time-policy split: swapping the policy
// reshapes virtual copy times without touching the engine, and restoring
// the default reproduces the modeled formulas exactly.
func TestSetTimePolicy(t *testing.T) {
	const bytes = 1 << 20
	run := func(policy TimePolicy) Time {
		s := MustNewSim(DefaultConfig(2))
		s.SetTimePolicy(policy)
		var arrive Time
		ev := s.CopyBytes(0, 1, bytes, NoEvent, nil)
		s.OnTrigger(ev, func() { arrive = s.Now() })
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arrive
	}
	modeled := run(nil) // nil restores the default ModeledTime
	fixed := run(flatPolicy{})
	if modeled == fixed {
		t.Fatalf("policy swap had no effect (both %v)", modeled)
	}
	if want := Microseconds(7); fixed != want {
		t.Fatalf("flat policy arrival = %v, want %v", fixed, want)
	}
	cfg := DefaultConfig(2)
	mt := ModeledTime{Cfg: cfg}
	if want := mt.RemoteTransfer(bytes) + mt.RemoteLatency(); modeled != want {
		t.Fatalf("modeled arrival = %v, want %v", modeled, want)
	}
}

// flatPolicy charges a constant for everything — the simplest possible
// alternative policy.
type flatPolicy struct{}

func (flatPolicy) TaskDuration(d Time) Time  { return d }
func (flatPolicy) LocalCopy(int64) Time      { return Microseconds(7) }
func (flatPolicy) RemoteTransfer(int64) Time { return Microseconds(5) }
func (flatPolicy) RemoteLatency() Time       { return Microseconds(2) }
func (flatPolicy) CollectiveLatency(int) Time {
	return Microseconds(1)
}

// TestUnsupportedError pins the structured error's text: callers match on
// the type, humans read the message.
func TestUnsupportedError(t *testing.T) {
	err := &UnsupportedError{Backend: "native", Op: "fault injection"}
	if !strings.Contains(err.Error(), "fault injection") || !strings.Contains(err.Error(), "native") {
		t.Fatalf("Error() = %q", err.Error())
	}
}
