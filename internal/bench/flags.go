package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cr"
	"repro/internal/realm"
	"repro/internal/verify"
)

// Flags is a command's flag set with the run-space axes it takes bound to
// its Config: Nodes, Shards and Measure register an axis's flags, and
// Check validates every bound axis into the Config. The command's other
// flags are its own, registered on the embedded set.
type Flags struct {
	*flag.FlagSet
	Config Config
	Stderr io.Writer
	name   string
	nodes  bool
	// The string-valued axes, nil when not bound.
	sync, trace, share, prune, agg, policy, fitIn, fitOut, faults *string
}

// NewFlags returns the empty flag set of the named command, which reports
// to stderr.
func NewFlags(name string, stderr io.Writer) *Flags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return &Flags{FlagSet: fs, name: name, Stderr: stderr}
}

// Parse parses args. -h prints the usage to stderr and returns
// flag.ErrHelp; a malformed flag is a one-line error.
func (f *Flags) Parse(args []string) error {
	err := f.FlagSet.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		f.SetOutput(f.Stderr)
		f.Usage()
	}
	return err
}

// Fail is the command's exit status for err: 0 for flag.ErrHelp, else 1
// after printing each line of err to stderr after the command's name.
func (f *Flags) Fail(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		fmt.Fprintf(f.Stderr, "%s: %s\n", f.name, line)
	}
	return 1
}

// Nodes binds -nodes, the machine's node count (default 4, at least 1).
func (f *Flags) Nodes(usage string) {
	f.IntVar(&f.Config.Nodes, "nodes", 4, usage)
	f.nodes = true
}

// Shards binds -shards, the CR shard count (0 = the node count), and
// -sync, the CR lowering.
func (f *Flags) Shards() {
	f.IntVar(&f.Config.Shards, "shards", 0, "shard count (default: nodes)")
	f.sync = f.String("sync", "p2p", "synchronization lowering: p2p or barrier")
}

// Measure binds the measurement axes: -backend; the on|off switches
// -trace and -trace-share (into NoTrace and NoShare), -prune and -agg;
// -fit-out, a native run's recorder (Fit); -timepolicy and -fit-in, the
// DES's time policy (Policy); and -faults seed:rate. It returns -fit-out's
// path, where the command writes the fit after its runs.
func (f *Flags) Measure() (fitOut *string) {
	f.StringVar(&f.Config.Backend, "backend", BackendDES, "realm backend: des (deterministic simulator, virtual time) or native (real goroutines, wall-clock)")
	f.trace = f.String("trace", "on", "runtime trace capture/replay: on or off (ablation; results are identical)")
	f.share = f.String("trace-share", "on", "cross-shard trace sharing: on or off (ablation; results are identical)")
	f.prune = f.String("prune", "off", "certified redundant-sync pruning: off (default) or on (ablation; results are identical, sync edges and messages drop)")
	f.agg = f.String("agg", "off", "coalesced exchange plans: off (default) or on (ablation; results are identical, one message per destination shard per exchange phase)")
	f.policy = f.String("timepolicy", "modeled", "DES time-charging policy: modeled (Cray-XC cost model) or measured (fitted, needs -fit-in)")
	f.fitIn = f.String("fit-in", "", "JSON file of fitted time coefficients to import (with -timepolicy measured)")
	f.faults = f.String("faults", "", "inject faults: seed:rate (crash rate in crashes per simulated second)")
	f.fitOut = f.String("fit-out", "", "fit a time policy from this native sweep and write its coefficients to this JSON file")
	return f.fitOut
}

// Check validates the bound axes into the Config; the first bad value is
// the error.
func (f *Flags) Check() error {
	c := &f.Config
	if f.nodes && c.Nodes < 1 {
		return fmt.Errorf("bad -nodes %d (want at least 1)", c.Nodes)
	}
	if f.sync != nil {
		switch *f.sync {
		case "p2p":
			c.Sync = cr.PointToPoint
		case "barrier":
			c.Sync = cr.BarrierSync
		default:
			return fmt.Errorf("unknown sync mode %q", *f.sync)
		}
	}
	if f.trace == nil { // Measure's axes are bound together
		return nil
	}
	if c.Backend != BackendDES && c.Backend != BackendNative {
		return fmt.Errorf("bad -backend %q (want des or native)", c.Backend)
	}
	for _, sw := range []struct {
		name   string
		val    *string
		dst    *bool
		invert bool
	}{{"trace", f.trace, &c.NoTrace, true}, {"trace-share", f.share, &c.NoShare, true}, {"prune", f.prune, &c.Prune, false}, {"agg", f.agg, &c.Agg, false}} {
		if *sw.val != "on" && *sw.val != "off" {
			return fmt.Errorf("bad -%s %q (want on or off)", sw.name, *sw.val)
		}
		*sw.dst = (*sw.val == "on") != sw.invert
	}

	base := realm.ModeledTime{Cfg: realm.DefaultConfig(1)}
	if *f.fitOut != "" {
		if !c.NativeBackend() {
			return errors.New("-fit-out records real kernel durations; use -backend native")
		}
		c.Fit = realm.NewMeasuredTime(base) // only when non-nil: a nil *MeasuredTime in the interface is not a nil recorder
	}
	switch fitIn := *f.fitIn; *f.policy {
	case "modeled":
		if fitIn != "" {
			return errors.New("-fit-in needs -timepolicy measured")
		}
	case "measured":
		if c.NativeBackend() {
			return errors.New("-timepolicy measured re-models on the DES; native time is wall-clock")
		}
		if fitIn == "" {
			return errors.New("-timepolicy measured needs -fit-in (a file written by -fit-out)")
		}
		data, err := os.ReadFile(fitIn)
		if err != nil {
			return err
		}
		if c.Policy, err = realm.ImportMeasuredTime(data, base); err != nil {
			return err
		}
	default:
		return fmt.Errorf("bad -timepolicy %q (want modeled or measured)", *f.policy)
	}

	faults := *f.faults
	if faults == "" {
		return nil
	}
	seedStr, rateStr, ok := strings.Cut(faults, ":")
	if !ok {
		return fmt.Errorf("bad -faults %q (want seed:rate, e.g. 42:0.5)", faults)
	}
	seed, err := strconv.ParseUint(strings.TrimSpace(seedStr), 0, 64)
	if err != nil {
		return fmt.Errorf("bad -faults seed %q: %v", seedStr, err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
	if err != nil || !(rate >= 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("bad -faults rate %q (want finite crashes per simulated second >= 0)", rateStr)
	}
	c.Faults = &realm.FaultPlan{Seed: seed, CrashRate: rate}
	return nil
}

// WriteSuites writes each certification suite as one indented JSON
// document to path, "-" being stdout; an empty path writes nothing.
func WriteSuites(path string, stdout io.Writer, suites ...*verify.Suite) error {
	if path == "" {
		return nil
	}
	var buf []byte
	for _, suite := range suites {
		doc, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return err
		}
		buf = append(append(buf, doc...), '\n')
	}
	if path == "-" {
		_, err := stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// WriteFindings prints each of the suite's findings to w as one line,
// prefix then "FAIL [pass] finding", and returns how many it printed.
func WriteFindings(w io.Writer, prefix string, suite *verify.Suite) int {
	for _, rep := range suite.Reports {
		for _, finding := range rep.Findings {
			fmt.Fprintf(w, "%sFAIL [%s] %s\n", prefix, rep.Pass, finding)
		}
	}
	return suite.NumFindings()
}
