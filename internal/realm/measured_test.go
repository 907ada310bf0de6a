package realm

import (
	"math"
	"testing"
)

// fitPolicy returns a MeasuredTime fed a steady stream of samples: every
// launch runs 3x its modeled duration, copies move a byte in 2ns plus a
// 100ns base.
func fitPolicy() *MeasuredTime {
	m := NewMeasuredTime(ModeledTime{Cfg: DefaultConfig(2)})
	for i := 0; i < 50; i++ {
		m.ObserveLaunch(Microseconds(10), 3*int64(Microseconds(10)))
		m.ObserveLaunch(0, 500) // control placeholders: absolute wall ns
		m.ObserveCopy(1000, 2*1000+100)
	}
	return m
}

func TestMeasuredTimeFitsRatios(t *testing.T) {
	m := fitPolicy()
	if l, c := m.Samples(); l != 100 || c != 50 {
		t.Fatalf("samples = %d/%d, want 100/50", l, c)
	}
	// A consistent 3x stream converges to a 3x rescale of its own class.
	if got, want := m.TaskDuration(Microseconds(10)), 3*Microseconds(10); !within(got, want, 0.05) {
		t.Errorf("TaskDuration(10us) = %d, want ~%d", got, want)
	}
	// Other classes reuse the nearest fitted ratio: still 3x.
	if got, want := m.TaskDuration(Microseconds(640)), 3*Microseconds(640); !within(got, want, 0.05) {
		t.Errorf("TaskDuration(640us) = %d, want ~%d (nearest-class ratio)", got, want)
	}
	if got := m.TaskDuration(0); !within(got, 500, 0.05) {
		t.Errorf("TaskDuration(0) = %d, want ~500ns (taskBase)", got)
	}
	if got := m.RemoteTransfer(2000); !within(got, 4000, 0.2) {
		t.Errorf("RemoteTransfer(2000) = %d, want ~4000ns (fitted 2ns/byte)", got)
	}
	// A single-size stream folds the whole cost into the rate (residual 0),
	// so the base adds nothing here — but it must never be negative.
	if lc, rt := m.LocalCopy(1000), m.RemoteTransfer(1000); lc < rt {
		t.Errorf("LocalCopy %d must be at least RemoteTransfer %d", lc, rt)
	}
}

func TestMeasuredTimeFallsBack(t *testing.T) {
	cfg := DefaultConfig(2)
	fb := ModeledTime{Cfg: cfg}
	m := NewMeasuredTime(fb)
	// Unfitted: every answer is the fallback's.
	if got := m.TaskDuration(Microseconds(7)); got != Microseconds(7) {
		t.Errorf("unfitted TaskDuration = %d, want identity", got)
	}
	if got := m.RemoteLatency(); got != fb.RemoteLatency() {
		t.Errorf("unfitted RemoteLatency = %d, want fallback %d", got, fb.RemoteLatency())
	}
	if got := m.CollectiveLatency(8); got != fb.CollectiveLatency(8) {
		t.Errorf("CollectiveLatency = %d, want fallback %d (always)", got, fb.CollectiveLatency(8))
	}
	// Collectives stay on the fallback even when fully fitted: the samples
	// carry no signal for them.
	f := fitPolicy()
	if got := f.CollectiveLatency(8); got != fb.CollectiveLatency(8) {
		t.Errorf("fitted CollectiveLatency = %d, want fallback %d", got, fb.CollectiveLatency(8))
	}
}

func TestMeasuredTimeRoundTripsJSON(t *testing.T) {
	m := fitPolicy()
	data, err := m.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportMeasuredTime(data, ModeledTime{Cfg: DefaultConfig(2)})
	if err != nil {
		t.Fatal(err)
	}
	// The import must reproduce the policy's answers exactly.
	for _, d := range []Time{0, Microseconds(1), Microseconds(10), Microseconds(640)} {
		if got, want := back.TaskDuration(d), m.TaskDuration(d); got != want {
			t.Errorf("TaskDuration(%d) round-tripped to %d, want %d", d, got, want)
		}
	}
	for _, b := range []int64{0, 100, 4096} {
		if got, want := back.LocalCopy(b), m.LocalCopy(b); got != want {
			t.Errorf("LocalCopy(%d) round-tripped to %d, want %d", b, got, want)
		}
		if got, want := back.RemoteTransfer(b), m.RemoteTransfer(b); got != want {
			t.Errorf("RemoteTransfer(%d) round-tripped to %d, want %d", b, got, want)
		}
	}
	if got, want := back.RemoteLatency(), m.RemoteLatency(); got != want {
		t.Errorf("RemoteLatency round-tripped to %d, want %d", got, want)
	}
	l1, c1 := m.Samples()
	l2, c2 := back.Samples()
	if l1 != l2 || c1 != c2 {
		t.Errorf("sample counts round-tripped to %d/%d, want %d/%d", l2, c2, l1, c1)
	}
	if _, err := ImportMeasuredTime([]byte("not json"), ModeledTime{}); err == nil {
		t.Error("garbage JSON must be rejected")
	}
	if _, err := ImportMeasuredTime([]byte(`{"task_class_ratio":{"x":1}}`), ModeledTime{}); err == nil {
		t.Error("a non-numeric class key must be rejected")
	}
}

// TestMeasuredTimeDrivesSim installs a fitted policy on a Sim and checks
// the virtual clock charges rescaled durations: the end-to-end seam the
// calibration loop relies on.
func TestMeasuredTimeDrivesSim(t *testing.T) {
	run := func(p TimePolicy) Time {
		s := MustNewSim(DefaultConfig(1))
		if p != nil {
			s.SetTimePolicy(p)
		}
		s.SpawnOn("w", 0, 0, func(th Agent) {
			for i := 0; i < 4; i++ {
				th.WaitEvent(s.LaunchOn(0, NoEvent, Microseconds(10), nil))
			}
		})
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	base := run(nil)
	fitted := run(fitPolicy())
	if !within(fitted, 3*base, 0.1) {
		t.Errorf("fitted run ended at %d, want ~3x the modeled %d", fitted, base)
	}
}

func within(got, want Time, tol float64) bool {
	return math.Abs(float64(got)-float64(want)) <= tol*float64(want)
}
