package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sizes are the knobs that differ between the measured scale and the smoke
// scale the tests and every run's warm-up use. The full sizes were chosen
// on a 2-CPU 2.1 GHz host so that one pass over a workload's cells takes
// 3–5 s and a 20 s run holds at least four passes (see README.md).
type sizes struct {
	name string

	figNodes []int // weak-scaling sweep of des_figs
	figIters int   // 0 = each figure's own iteration count

	pathNodes  []int // non-default spmd/rt paths
	aggNodes   []int // shards of the 2x-overdecomposed aggregation cells
	crashNodes []int // seeded crash + recovery

	checkShards  []int          // certify check set, both lowerings
	pruneShards  map[string]int // certify prune set, per app
	randomProgs  int            // known-answer random programs
	mutantShards int
	mutants      int // essential and liveness mutants drawn per app

	nativeNodes  int
	nativeSizing sizing
	nativeIters  int
	heatElems    int
	heatSteps    int
	regionSide   int64 // side of the tile the region accessor loops run over

	probeNodes int // node count of the once-per-traced-run scale probes; 0 = none
}

var fullSizes = sizes{
	name:         "full",
	figNodes:     []int{1, 4, 16, 64, 256},
	pathNodes:    []int{64, 128},
	aggNodes:     []int{8, 16},
	crashNodes:   []int{16, 64},
	checkShards:  []int{64},
	pruneShards:  map[string]int{"stencil": 64, "miniaero": 8, "pennant": 64, "circuit": 16},
	randomProgs:  30,
	mutantShards: 8,
	mutants:      8,
	nativeNodes:  8,
	nativeSizing: sizeNative,
	nativeIters:  6,
	heatElems:    65536,
	heatSteps:    12,
	regionSide:   360,
	probeNodes:   1024,
}

var smokeSizes = sizes{
	name:         "smoke",
	figNodes:     []int{1, 4, 16},
	figIters:     4,
	pathNodes:    []int{4},
	aggNodes:     []int{2},
	crashNodes:   []int{4},
	checkShards:  []int{4},
	pruneShards:  map[string]int{"stencil": 16, "miniaero": 2, "pennant": 16, "circuit": 2},
	randomProgs:  4,
	mutantShards: 4,
	mutants:      2,
	nativeNodes:  4,
	nativeSizing: sizeSmall,
	nativeIters:  4,
	heatElems:    512,
	heatSteps:    4,
	regionSide:   24,
}

// cell is one unit of a workload: it drives some layers, and either
// returns the text its reference must equal (ref) or checks a property of
// its own and returns an error.
type cell struct {
	name string
	ref  bool
	run  func(p *pass) (string, error)
	// oracle, if set, produces the reference when references are
	// regenerated: the sequential interpreter's answer, so that a Real-mode
	// cell is never compared with its own earlier output.
	oracle func() string
}

// workload is one named set of inputs. prepare builds the cells from the
// seed at a scale; probes, if set, are the once-per-traced-run measurements
// (the 1024-node cells, the sequential baseline, the micro-loops).
type workload struct {
	name    string
	why     string
	prepare func(sz sizes, seed int64) ([]cell, error)
	probes  func(sz sizes) []cell
}

var workloads = []workload{desFigs, desPaths, certify, nativeApps}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// failure names a failed cell and why it failed.
type failure struct {
	Cell string `json:"cell"`
	Why  string `json:"why"`
}

// pass is one run over a workload's cells: its tracer (nil when untraced),
// the counters and samples its cells report, and what came of it.
type pass struct {
	tr      *tracer
	sz      sizes
	vals    map[string]float64   // summed counters, by metric name
	samples map[string][]float64 // per-iteration samples, by metric name
	got     references

	attempted int
	failed    []failure
	wall      time.Duration
	cpu       time.Duration
	allocMB   float64
	cellWall  map[string]time.Duration
}

func newPass(sz sizes, tr *tracer) *pass {
	return &pass{tr: tr, sz: sz, vals: map[string]float64{}, samples: map[string][]float64{},
		got: references{}, cellWall: map[string]time.Duration{}}
}

func (p *pass) add(name string, v float64) { p.vals[name] += v }

// spansOnly returns a pass that shares this one's tracer but not its
// counters: the scale probes reuse the passes' cell code, and what they
// count must stay out of the passes' exact counters.
func (p *pass) spansOnly() *pass { return newPass(p.sz, p.tr) }

func (p *pass) sample(name string, v float64) { p.samples[name] = append(p.samples[name], v) }

// runCell runs one cell, turning a panic into a named failure so the other
// cells still run, and compares a reference cell's text with its reference.
func (p *pass) runCell(i int, c cell, refs references) {
	p.attempted++
	p.tr.inCell(i)
	t0 := time.Now()
	got, err := func() (got string, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return c.run(p)
	}()
	p.cellWall[c.name] = time.Since(t0)
	switch {
	case err != nil:
		p.failed = append(p.failed, failure{c.name, err.Error()})
	case c.ref:
		p.got[c.name] = got
		if refs == nil { // regenerating
			if c.oracle != nil {
				p.got[c.name] = c.oracle()
			}
			break
		}
		want, ok := refs[c.name]
		if !ok {
			p.failed = append(p.failed, failure{c.name, "no reference; run -regen"})
		} else if want != got {
			p.failed = append(p.failed, failure{c.name, fmt.Sprintf("output differs from reference:\n--- want\n%s\n--- got\n%s", want, got)})
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runPass runs every cell once, back to back on the calling goroutine (a
// closed loop with one client), and measures the pass as a whole.
func runPass(cells []cell, refs references, sz sizes, tr *tracer) *pass {
	p := newPass(sz, tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	for i, c := range cells {
		p.runCell(i, c, refs)
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	return p
}

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // the benchmark's directory: expected/ lives here
	outDir   string // where a traced run writes its trace (default dir/out)
	sz       sizes
	setups   int // how many times set-up is repeated for its median
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []failure
}

// setUp is everything before the first timed cell: load the references,
// run one pass at the smoke scale (which fills caches, grows the heap, and
// checks the machinery against the smoke references), and build the cells
// at the measured scale. A run at the smoke scale skips the warm-up: its
// first pass is the same thing.
func setUp(w workload, cfg runConfig) (cells []cell, refs references, fails []failure, err error) {
	smokeRefs, err := loadReferences(referencePath(filepath.Join(cfg.dir, "expected"), w.name, smokeSizes.name))
	if err != nil {
		return nil, nil, nil, err
	}
	refs, err = loadReferences(referencePath(filepath.Join(cfg.dir, "expected"), w.name, cfg.sz.name))
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.sz.name != smokeSizes.name {
		smoke, err := w.prepare(smokeSizes, cfg.seed)
		if err != nil {
			return nil, nil, nil, err
		}
		warm := runPass(smoke, smokeRefs, smokeSizes, nil)
		for _, f := range warm.failed {
			fails = append(fails, failure{"warm-up/" + f.Cell, f.Why})
		}
	}
	cells, err = w.prepare(cfg.sz, cfg.seed)
	return cells, refs, fails, err
}

// run measures one workload: set-up (repeated, median reported), then
// passes over the cells until the time is used. An untraced run yields the
// end-to-end metrics; a traced run alternates untraced and traced passes
// and yields the per-layer metrics.
func run(cfg runConfig) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Metrics: map[string]metricValue{}}

	var cells []cell
	var refs references
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		c, r, fails, err := setUp(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		cells, refs = c, r
		if i == 0 {
			res.failures = append(res.failures, fails...)
			res.Attempted += len(fails)
		}
	}

	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced []*pass
	var probe *pass
	if cfg.trace {
		probe = runPass(w.probes(cfg.sz), refs, cfg.sz, newTracer())
		res.failures = append(res.failures, probe.failed...)
		res.Attempted += probe.attempted
	}
	// Start another round while the time is not used up and the round is
	// likely to end within a quarter of the budget past it.
	var round time.Duration
	for len(plain) == 0 || (time.Since(start) < budget && time.Since(start)+round < budget+budget/4) {
		t0 := time.Now()
		plain = append(plain, runPass(cells, refs, cfg.sz, nil))
		if cfg.trace {
			traced = append(traced, runPass(cells, refs, cfg.sz, newTracer()))
		}
		round = time.Since(t0)
	}
	for _, p := range append(append([]*pass(nil), plain...), traced...) {
		res.Attempted += p.attempted
		res.failures = append(res.failures, p.failed...)
	}

	if cfg.trace {
		vals, fails := layerMetrics(plain, traced, probe)
		res.failures = append(res.failures, fails...)
		res.Attempted += len(fails)
		// The cells of one pass and the probes, not the number attempted:
		// how many passes fit in the time differs from run to run.
		vals["bench.cells"] = float64(len(cells) + probe.attempted)
		vals["bench.cells_failed"] = float64(len(res.failures))
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		if err := writeTrace(cfg, traced[0].tr); err != nil {
			return nil, err
		}
	} else {
		// Time is reported for the fastest pass: the cells are the same in
		// every pass, and interference from the host only ever adds time (a
		// neighbour's burst slowed whole runs of passes by a fifth while
		// this was being sized, which a median over passes does not
		// absorb). Allocation repeats almost exactly, so its median is kept.
		over := func(stat func([]float64) float64, f func(*pass) float64) float64 {
			xs := make([]float64, len(plain))
			for i, p := range plain {
				xs[i] = f(p)
			}
			return stat(xs)
		}
		vals := map[string]float64{
			"setup_s":     median(setupS),
			"wall_s":      over(slices.Min, func(p *pass) float64 { return p.wall.Seconds() }),
			"cpu_s":       over(slices.Min, func(p *pass) float64 { return p.cpu.Seconds() }),
			"alloc_mb":    over(median, func(p *pass) float64 { return p.allocMB }),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
	}
	res.Failed = len(res.failures)
	res.Correct = res.Failed == 0
	return res, nil
}

func writeTrace(cfg runConfig, tr *tracer) error {
	out := cfg.outDir
	if out == "" {
		out = filepath.Join(cfg.dir, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(out, "trace-"+cfg.workload+".json"))
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics folds the passes of a traced run into one value per
// per-layer metric: the median over passes for timings, the single repeated
// value for exact counters (a counter that differs between two passes of
// the same inputs is a failure, not noise).
func layerMetrics(plain, traced []*pass, probe *pass) (map[string]float64, []failure) {
	decls := declByName(perLayer)
	perPass := map[string][]float64{}
	note := func(vals map[string]float64) {
		for k, v := range vals {
			perPass[k] = append(perPass[k], v)
		}
	}
	pooled := map[string][]float64{}
	for _, p := range plain {
		note(plainValues(p))
		for k, xs := range p.samples {
			pooled[k] = append(pooled[k], xs...)
		}
	}
	for _, p := range traced {
		note(tracedValues(p))
	}
	if probe != nil {
		note(probeValues(probe))
	}

	out := map[string]float64{}
	var fails []failure
	names := make([]string, 0, len(perPass))
	for k := range perPass {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := perPass[k]
		out[k] = median(xs)
		if decls[k].Exact {
			for _, x := range xs {
				if x != xs[0] {
					fails = append(fails, failure{"exact/" + k, fmt.Sprintf("counter differs between passes of the same inputs: %v", xs)})
					break
				}
			}
		}
	}
	sampleMetrics(pooled, out)

	walls := func(ps []*pass) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.wall.Seconds()
		}
		return xs
	}
	if u := median(walls(plain)); u > 0 {
		out["bench.trace_overhead_frac"] = median(walls(traced))/u - 1
		cov := make([]float64, len(traced))
		for i, p := range traced {
			cov[i] = p.tr.topLevel().Seconds()
		}
		out["bench.trace_coverage"] = median(cov) / u
	}
	return out, fails
}

// failedMark starts the line that names a failed cell; the suite reads the
// failures of its child runs back from these lines.
const failedMark = "FAILED "

// printResult writes the failures (for a human) and then the result object
// as the last line of standard output.
func printResult(res *result) error {
	for _, f := range res.failures {
		fmt.Printf("%s%s: %s\n", failedMark, f.Cell, strings.ReplaceAll(f.Why, "\n", "\n\t"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
