package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for a misbehaving benchmark child:
// the suite's child handling is tested against a process that hangs, one
// that panics, and one that prints a result and exits cleanly.
func TestMain(m *testing.M) {
	switch os.Getenv("BENCH_TEST_CHILD") {
	case "hang":
		time.Sleep(time.Hour)
	case "panic":
		panic("boom")
	case "ok":
		fmt.Println(failedMark + "some/cell: output differs")
		fmt.Println(`{"correct":false,"attempted":3,"failed":1,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}`)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := geomean([]float64{2, 8}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct{ n, wantP int }{
		{39, 50},   // 39 - ceil(29.25) = 9 beyond p75: nothing qualifies
		{40, 75},   // exactly ten beyond p75
		{99, 75},   // 99 - 90 = 9 beyond p90
		{100, 90},  // ten beyond p90
		{144, 90},  // the default native_apps pool
		{200, 95},  // ten beyond p95
		{1000, 99}, // ten beyond p99
	} {
		p, v := tailPercentile(ramp(tc.n))
		if p != tc.wantP {
			t.Errorf("n=%d: percentile %d, want %d", tc.n, p, tc.wantP)
		}
		if beyond := tc.n - int(v); tc.wantP != 50 && beyond < 10 {
			t.Errorf("n=%d p%d: only %d samples beyond %v", tc.n, p, beyond, v)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "cell", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "cr.compile", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "spmd.run", Parent: 0, Start: 40 * ms, End: 80 * ms},
		{Name: "cr.compile", Parent: 2, Start: 50 * ms, End: 55 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"cell": 40 * ms, "cr.compile": 25 * ms, "spmd.run": 35 * ms} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}

	tr := newTracer()
	tr.inCell(7)
	tr.at(64)
	outer := tr.span("outer")
	inner := tr.span("inner")
	inner()
	outer()
	tr.span("next")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	if s := tr.spans[1]; s.Cell != 7 || s.Nodes != 64 || s.End < s.Start {
		t.Errorf("span identity wrong: %+v", s)
	}
	dur := func(i int) time.Duration { return tr.spans[i].End - tr.spans[i].Start }
	if tr.topLevel() != dur(0)+dur(2) {
		t.Errorf("topLevel %v != outer %v + next %v", tr.topLevel(), dur(0), dur(2))
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome trace does not load: %v, %+v", err, doc)
	}
	var none *tracer
	none.inCell(1)
	none.at(2)
	none.span("ignored")() // a nil tracer records nothing and does not panic
}

func twoResults() (a, b *results) {
	mk := func() *results {
		r := &results{Header: header{Commit: "c", Runs: 10, Seconds: 20}, Workloads: map[string]*workloadResults{}}
		r.Workloads["des_figs"] = &workloadResults{
			Attempted: 40,
			EndToEnd: map[string]summary{
				"setup_s": summarize("s", []float64{0.10, 0.11, 0.10}),
				"wall_s":  summarize("s", []float64{3.00, 3.01, 3.02}),
			},
			PerLayer: map[string]layerValue{
				"realm.events":  {Unit: "count", Value: 1000},
				"cr.compile_ms": {Unit: "ms", Value: 250},
			},
		}
		return r
	}
	return mk(), mk()
}

func TestCompareVerdicts(t *testing.T) {
	decl := declByName(endToEnd)["wall_s"]
	steady := func(m float64) summary { return summarize("s", []float64{m, m * 1.001, m * 0.999}) }
	noisy := func(m float64) summary { return summarize("s", []float64{m * 0.5, m, m * 1.5}) }
	for _, tc := range []struct {
		name string
		a, b summary
		want string
	}{
		{"same", steady(3), steady(3), verdictOK},
		{"within bound", steady(3), steady(3 * (1 + decl.Bound*0.9)), verdictOK},
		{"better", steady(3), steady(2), verdictOK},
		{"worse", steady(3), steady(3 * (1 + decl.Bound*1.1)), verdictWorse},
		{"spread exceeds bound", steady(3), noisy(3), verdictUnresolved},
	} {
		if got := judge(decl, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metricDecl{Name: "x", Better: "higher", Bound: 0.1}
	if got := judge(higher, steady(10), steady(8)); got != verdictWorse {
		t.Errorf("higher-is-better metric that fell 20%%: verdict %q, want worse", got)
	}

	a, b := twoResults()
	var out bytes.Buffer
	if !compareResults(&out, a, b) {
		t.Errorf("identical results compare as not ok:\n%s", out.String())
	}
	b.Workloads["des_figs"].PerLayer["realm.events"] = layerValue{Unit: "count", Value: 1001}
	out.Reset()
	if compareResults(&out, a, b) || !strings.Contains(out.String(), verdictMismatch) {
		t.Errorf("an exact counter that differs must fail the comparison:\n%s", out.String())
	}
	a, b = twoResults()
	b.Workloads["des_figs"].EndToEnd["wall_s"] = summarize("s", []float64{4.00, 4.01, 4.02})
	out.Reset()
	if compareResults(&out, a, b) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a median a third worse must fail the comparison:\n%s", out.String())
	}
	a, b = twoResults()
	b.Workloads["des_figs"].PerLayer["cr.compile_ms"] = layerValue{Unit: "ms", Value: 500}
	out.Reset()
	if !compareResults(&out, a, b) {
		t.Errorf("a per-layer timing has no bound and must not fail the comparison:\n%s", out.String())
	}
}

func TestResultsSchemaRoundTrip(t *testing.T) {
	a, _ := twoResults()
	a.Workloads["des_figs"].Failures = []failure{{"fig6", "differs"}}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Errorf("results.json does not round-trip:\n%+v\n%+v", a, back)
	}

	// The line a run prints has exactly the four keys its driver reads.
	line, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {1.5, "s"}}, failures: []failure{{"x", "y"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", string(line))
	}
}

func TestMetricDeclarations(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not made of letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	var maxBound float64
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
	}
	if s := declByName(endToEnd)["setup_s"]; s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower is better, with the largest bound: %+v", s)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the
// declarations in step: every metric a run emits is declared there, and
// every metric declared there is emitted.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var onDisk manifest
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the declarations; regenerate it with\n\tbash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

// TestSmoke runs all four workloads at the smoke scale, untraced and traced,
// reference checks included; checks that each run emits exactly the
// declared metrics; and checks the benchmark's central claim at that scale:
// a layer a workload is said to bypass reports nothing there.
func TestSmoke(t *testing.T) {
	layers := map[string]map[string]metricValue{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				out := t.TempDir()
				res, err := run(runConfig{workload: w.name, seed: 5, seconds: 0.01, trace: trace,
					dir: ".", outDir: out, sz: smokeSizes, setups: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.failures {
					t.Errorf("failed cell %s: %s", f.Cell, f.Why)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
					layers[w.name] = res.Metrics
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}

	figs, paths, cert, nat := layers["des_figs"], layers["des_paths"], layers["certify"], layers["native_apps"]
	if figs == nil || paths == nil || cert == nil || nat == nil {
		t.Fatal("a traced run is missing")
	}
	for _, name := range []string{"verify.verify_ms", "verify.plan_prune_ms", "native.kernel_busy_ms", "iter_ms", "spmd.barrier_run_ms", "spmd.recover_run_ms"} {
		if v := figs[name].Value; v != 0 {
			t.Errorf("des_figs: %s = %v, want 0 (layer idle)", name, v)
		}
	}
	for _, name := range []string{"spmd.run_ms", "rt.run_ms", "baseline.run_ms", "realm.events", "fig6_s"} {
		if figs[name].Value <= 0 {
			t.Errorf("des_figs: %s = %v, want > 0", name, figs[name].Value)
		}
		if v := cert[name].Value; v != 0 {
			t.Errorf("certify: %s = %v, want 0 (layer idle)", name, v)
		}
	}
	for _, name := range []string{"spmd.barrier_run_ms", "spmd.notrace_run_ms", "spmd.noshare_run_ms", "spmd.agg_run_ms", "spmd.recover_run_ms", "spmd.real_run_ms", "rt.notrace_run_ms", "realm.crashes", "realm.agg_saved_messages"} {
		if paths[name].Value <= 0 {
			t.Errorf("des_paths: %s = %v, want > 0", name, paths[name].Value)
		}
	}
	if paths["spmd.run_ms"].Value != 0 {
		t.Errorf("des_paths: spmd.run_ms = %v, want 0 (no default-path run)", paths["spmd.run_ms"].Value)
	}
	if cert["verify.verify_ms"].Value <= 0 || cert["prune_s"].Value <= 0 || cert["verify.mutants"].Value == 0 ||
		cert["verify.mutants"].Value != cert["verify.mutants_detected"].Value || cert["verify.findings_clean"].Value != 0 {
		t.Errorf("certify: verify metrics wrong: %+v", cert)
	}
	if nat["native.kernel_busy_ms"].Value <= 0 || nat["iter_ms"].Value <= 0 || nat["region.get_ns"].Value <= 0 ||
		nat["ir.seq_run_ms"].Value <= 0 || nat["realm.events"].Value != 0 {
		t.Errorf("native_apps: kernels must be busy and the DES idle: %+v", nat)
	}
}

// TestRegenIsDeterministic regenerates the smoke references twice, from two
// different seeds, and requires byte-identical files that also equal the
// committed ones: the DES and the sequential interpreter are deterministic,
// and no reference depends on the seed.
func TestRegenIsDeterministic(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	if err := regenerate(d1, 1, smokeSizes); err != nil {
		t.Fatal(err)
	}
	if err := regenerate(d2, 2, smokeSizes); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		name := filepath.Base(referencePath("", w.name, smokeSizes.name))
		a, err := os.ReadFile(filepath.Join(d1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(filepath.Join(d2, name))
		committed, _ := os.ReadFile(filepath.Join("expected", name))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two regenerations differ", name)
		}
		if !bytes.Equal(a, committed) {
			t.Errorf("%s: regenerated references differ from the committed ones; run -regen if the change is intended", name)
		}
	}
}

func TestChecksumSeesEveryBit(t *testing.T) {
	spec := specByName("stencil")
	prog, _ := spec.build(sizeSmall, 4, 4)
	again, _ := spec.build(sizeSmall, 4, 4)
	longer, _ := spec.build(sizeSmall, 4, 5)
	a, b, c := seqChecksum(prog), seqChecksum(again), seqChecksum(longer)
	if a != b {
		t.Errorf("the same program checksums differently: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("one more iteration left the checksum unchanged: %s", a)
	}
}

func TestReferenceFileRoundTrip(t *testing.T) {
	refs := references{"fig6": "Figure 6\nnodes  a\n1      2", "stencil/real/4": "fnv64a:00"}
	path := filepath.Join(t.TempDir(), "x.txt")
	if err := refs.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadReferences(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refs, back) {
		t.Errorf("references do not round-trip: %q vs %q", refs, back)
	}
}

// TestFailedCellIsNamed checks that a cell that panics, errors or disagrees
// with its reference becomes a named failure and the cells after it still
// run.
func TestFailedCellIsNamed(t *testing.T) {
	ran := false
	cells := []cell{
		{name: "panics", run: func(*pass) (string, error) { panic("boom") }},
		{name: "errors", run: func(*pass) (string, error) { return "", fmt.Errorf("unsupported") }},
		{name: "differs", ref: true, run: func(*pass) (string, error) { return "got", nil }},
		{name: "unreferenced", ref: true, run: func(*pass) (string, error) { return "got", nil }},
		{name: "fine", ref: true, run: func(*pass) (string, error) { ran = true; return "same", nil }},
	}
	p := runPass(cells, references{"differs": "want", "fine": "same"}, smokeSizes, nil)
	if p.attempted != 5 || len(p.failed) != 4 || !ran {
		t.Fatalf("attempted %d, failed %+v, last cell ran %v", p.attempted, p.failed, ran)
	}
	for i, name := range []string{"panics", "errors", "differs", "unreferenced"} {
		if p.failed[i].Cell != name {
			t.Errorf("failure %d is %q, want %q", i, p.failed[i].Cell, name)
		}
	}
}

// TestChildFailuresBecomeCells runs the suite's child handling against
// children that hang, panic, and fail cleanly.
func TestChildFailuresBecomeCells(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := suiteConfig{dir: ".", seconds: 1, timeout: 300 * time.Millisecond}

	t.Setenv("BENCH_TEST_CHILD", "hang")
	res, fails := childRun(exe, cfg, "des_figs", 1, false)
	if res != nil || len(fails) != 1 || !strings.Contains(fails[0].Why, "timed out") {
		t.Errorf("hung child: result %v, failures %+v", res, fails)
	}

	cfg.timeout = 20 * time.Second
	t.Setenv("BENCH_TEST_CHILD", "panic")
	res, fails = childRun(exe, cfg, "des_figs", 1, false)
	if res != nil || len(fails) != 1 || !strings.Contains(fails[0].Why, "exit status") || !strings.Contains(fails[0].Why, "boom") {
		t.Errorf("panicking child: result %v, failures %+v", res, fails)
	}

	t.Setenv("BENCH_TEST_CHILD", "ok")
	res, fails = childRun(exe, cfg, "des_figs", 1, false)
	if res == nil || res.Failed != 1 || len(fails) != 1 || fails[0].Cell != "some/cell" {
		t.Errorf("child with a failed cell: result %+v, failures %+v", res, fails)
	}
}
