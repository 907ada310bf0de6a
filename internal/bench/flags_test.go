package bench

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cr"
	"repro/internal/realm"
)

// TestFlagsCheckEachAxis: every axis parses into its Config field, and
// every bad value is the first error Check returns, in binding order.
func TestFlagsCheckEachAxis(t *testing.T) {
	fitIn := filepath.Join(t.TempDir(), "fit.json")
	fit := realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(1)})
	if buf, err := fit.ExportJSON(); err != nil || os.WriteFile(fitIn, buf, 0o644) != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want Config // compared without Fit and Policy
		err  string
	}{
		{nil, Config{Nodes: 4, MeasureOpts: MeasureOpts{Backend: BackendDES}}, ""},
		{[]string{"-nodes", "1", "-shards", "2", "-sync", "barrier"}, Config{Nodes: 1, Shards: 2, Sync: cr.BarrierSync, MeasureOpts: MeasureOpts{Backend: BackendDES}}, ""},
		{[]string{"-trace", "off", "-trace-share", "off", "-prune", "on", "-agg", "on", "-backend", "native"},
			Config{Nodes: 4, MeasureOpts: MeasureOpts{Backend: BackendNative, NoTrace: true, NoShare: true, Prune: true, Agg: true}}, ""},
		{[]string{"-faults", "42:2000"}, Config{Nodes: 4, MeasureOpts: MeasureOpts{Backend: BackendDES, Faults: &realm.FaultPlan{Seed: 42, CrashRate: 2000}}}, ""},
		{[]string{"-nodes", "0"}, Config{}, "bad -nodes 0 (want at least 1)"},
		{[]string{"-nodes", "-1"}, Config{}, "bad -nodes -1 (want at least 1)"},
		{[]string{"-nodes", "-64"}, Config{}, "bad -nodes -64 (want at least 1)"},
		{[]string{"-nodes", "0", "-sync", "bogus"}, Config{}, "bad -nodes 0 (want at least 1)"},
		{[]string{"-sync", "bogus"}, Config{}, `unknown sync mode "bogus"`},
		{[]string{"-backend", "banana"}, Config{}, `bad -backend "banana" (want des or native)`},
		{[]string{"-trace", "banana", "-agg", "x"}, Config{}, `bad -trace "banana" (want on or off)`},
		{[]string{"-trace-share", "x"}, Config{}, `bad -trace-share "x" (want on or off)`},
		{[]string{"-prune", "true"}, Config{}, `bad -prune "true" (want on or off)`},
		{[]string{"-agg", "x"}, Config{}, `bad -agg "x" (want on or off)`},
		{[]string{"-fit-out", "f.json"}, Config{}, "-fit-out records real kernel durations; use -backend native"},
		{[]string{"-fit-in", fitIn}, Config{}, "-fit-in needs -timepolicy measured"},
		{[]string{"-timepolicy", "measured"}, Config{}, "-timepolicy measured needs -fit-in (a file written by -fit-out)"},
		{[]string{"-timepolicy", "measured", "-fit-in", fitIn, "-backend", "native"}, Config{}, "-timepolicy measured re-models on the DES; native time is wall-clock"},
		{[]string{"-timepolicy", "bogus"}, Config{}, `bad -timepolicy "bogus" (want modeled or measured)`},
		{[]string{"-faults", "banana"}, Config{}, `bad -faults "banana" (want seed:rate, e.g. 42:0.5)`},
		{[]string{"-faults", "x:1"}, Config{}, `bad -faults seed "x": strconv.ParseUint: parsing "x": invalid syntax`},
		{[]string{"-faults", "1:NaN"}, Config{}, `bad -faults rate "NaN" (want finite crashes per simulated second >= 0)`},
		{[]string{"-faults", "1:Inf"}, Config{}, `bad -faults rate "Inf" (want finite crashes per simulated second >= 0)`},
		{[]string{"-faults", "1:+Inf"}, Config{}, `bad -faults rate "+Inf" (want finite crashes per simulated second >= 0)`},
		{[]string{"-faults", "1:-1"}, Config{}, `bad -faults rate "-1" (want finite crashes per simulated second >= 0)`},
		{[]string{"-faults", "1:-Inf"}, Config{}, `bad -faults rate "-Inf" (want finite crashes per simulated second >= 0)`},
	} {
		f := NewFlags("cmd", io.Discard)
		f.Nodes("")
		f.Shards()
		f.Measure()
		if err := f.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := f.Check()
		if got := errString(err); got != tc.err {
			t.Errorf("%v: error %q, want %q", tc.args, got, tc.err)
			continue
		}
		if err != nil {
			continue
		}
		cfg := f.Config
		cfg.Fit, cfg.Policy = nil, nil
		if !reflect.DeepEqual(cfg, tc.want) {
			t.Errorf("%v: %+v, want %+v", tc.args, cfg, tc.want)
		}
	}
}

// TestFlagsTimePolicy: -fit-out on native installs a fresh recorder as
// Fit, and -timepolicy measured installs the imported policy; neither is
// set otherwise, so a nil recorder never hides in the interface.
func TestFlagsTimePolicy(t *testing.T) {
	fitIn := filepath.Join(t.TempDir(), "fit.json")
	fit := realm.NewMeasuredTime(realm.ModeledTime{Cfg: realm.DefaultConfig(1)})
	if buf, err := fit.ExportJSON(); err != nil || os.WriteFile(fitIn, buf, 0o644) != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args        []string
		fit, policy bool
		fitOut      string
	}{
		{nil, false, false, ""},
		{[]string{"-backend", "native", "-fit-out", "f.json"}, true, false, "f.json"},
		{[]string{"-timepolicy", "measured", "-fit-in", fitIn}, false, true, ""},
	} {
		f := NewFlags("cmd", io.Discard)
		fitOut := f.Measure()
		if err := f.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		cfg := f.Config
		_, isFit := cfg.Fit.(*realm.MeasuredTime)
		if isFit != tc.fit || (cfg.Fit != nil) != tc.fit || (cfg.Policy != nil) != tc.policy || *fitOut != tc.fitOut {
			t.Errorf("%v: Fit %v, Policy %v, -fit-out %q", tc.args, cfg.Fit, cfg.Policy, *fitOut)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
