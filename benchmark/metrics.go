package main

// metricDecl declares one metric the benchmark emits. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening of the median
	// Exact marks a counter that must repeat bit for bit for the same
	// workload and seed; passes of one run and the two sides of -compare
	// are checked with ==.
	Exact bool
}

// endToEnd are the metrics every workload reports in an untraced run. The
// bounds are set from the spreads measured when the benchmark was defined
// (benchmark/README.md). The timings have the widest bound the driver
// allows: on a quiet host their spread is 2–7 %, but the host this was
// defined on has minutes-long noisy periods that slow every workload by a
// fifth, and a bound the host's own noise exceeds decides nothing.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

func ms(name string) metricDecl   { return metricDecl{Name: name, Unit: "ms", Better: "lower"} }
func secs(name string) metricDecl { return metricDecl{Name: name, Unit: "s", Better: "lower"} }
func mb(name string) metricDecl   { return metricDecl{Name: name, Unit: "MB", Better: "lower"} }
func ns(name string) metricDecl   { return metricDecl{Name: name, Unit: "ns", Better: "lower"} }
func exact(name string) metricDecl {
	return metricDecl{Name: name, Unit: "count", Better: "lower", Exact: true}
}
func ratio(name, better string) metricDecl {
	return metricDecl{Name: name, Unit: "ratio", Better: better}
}

// perLayer are the metrics a traced run reports, <module>.<metric>. A layer
// that does nothing in a workload reports 0 there — that is the evidence
// the workload bypasses it. The first eight are the per-workload headline
// timings, which the driver's contract (every end-to-end metric on every
// workload) keeps out of endToEnd.
var perLayer = []metricDecl{
	secs("fig6_s"), secs("fig7_s"), secs("fig8_s"), secs("fig9_s"),
	secs("verdict_s"), secs("prune_s"),
	ms("iter_ms"), ms("iter_ms_implicit"),

	ms("apps.build_ms"), ms("apps.build_1024_ms"),

	ms("lang.compile_ms"), exact("lang.src_bytes"),
	{Name: "lang.kernel_melem_per_s", Unit: "Melem/s", Better: "higher"},

	ms("intersect.shallow_ms"), ms("intersect.complete_ms"),
	exact("intersect.candidates"), exact("intersect.pairs"),

	ms("cr.compile_ms"), ms("cr.compile_1024_ms"), ms("cr.agg_compile_ms"), mb("cr.compile_alloc_mb"),
	exact("cr.copies_inserted"), exact("cr.copies_final"), exact("cr.hoisted"),

	ms("verify.verify_ms"), ms("verify.check_spec_ms"), ms("verify.check_agg_ms"),
	ms("verify.plan_prune_ms"), ms("verify.plan_prune_1024_ms"), ms("verify.mutant_check_ms"),
	mb("verify.alloc_mb"),
	exact("verify.graph_nodes"), exact("verify.graph_edges"), exact("verify.conflicts"),
	exact("verify.sync_edges_before"), exact("verify.sync_edges_after"), exact("verify.pruned_init_copies"),
	exact("verify.agg_groups"), exact("verify.agg_merged_pairs"),
	exact("verify.findings_clean"), exact("verify.mutants"),
	{Name: "verify.mutants_detected", Unit: "count", Better: "higher", Exact: true},

	ms("spmd.run_ms"), ms("spmd.run_1024_ms"), mb("spmd.run_alloc_mb"),
	exact("spmd.captures"), exact("spmd.per_shard_captures"), exact("spmd.specializations"), exact("spmd.replayed_iters"),
	ms("spmd.barrier_run_ms"), ms("spmd.notrace_run_ms"), ms("spmd.noshare_run_ms"),
	ms("spmd.agg_run_ms"), ms("spmd.recover_run_ms"), ms("spmd.real_run_ms"),
	exact("spmd.restarts"), exact("spmd.checkpoints"), exact("spmd.trace_ships"),

	ms("rt.run_ms"), ms("rt.run_1024_ms"), ms("rt.notrace_run_ms"),
	exact("rt.capture_iters"), exact("rt.replayed_launches"), exact("rt.shared_points"),

	ms("baseline.run_ms"),

	exact("realm.events"), exact("realm.messages"), exact("realm.bytes_sent"), exact("realm.tasks_run"),
	exact("realm.local_copies"),
	{Name: "realm.virtual_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "realm.agg_saved_messages", Unit: "count", Better: "higher", Exact: true},
	exact("realm.crashes"),
	ns("realm.ns_per_event"), ns("realm.raw_ns_per_event"),

	ms("native.iter_ms.stencil"), ms("native.iter_ms.miniaero"), ms("native.iter_ms.pennant"),
	ms("native.iter_ms.circuit"), ms("native.iter_ms.heat_dsl"),
	ms("native.implicit_iter_ms.stencil"), ms("native.implicit_iter_ms.miniaero"),
	ms("native.implicit_iter_ms.pennant"), ms("native.implicit_iter_ms.circuit"),
	{Name: "native.workers", Unit: "count", Better: "lower"},
	{Name: "native.dispatches", Unit: "count", Better: "lower"},
	{Name: "native.steals", Unit: "count", Better: "lower"},
	{Name: "native.inline_completions", Unit: "count", Better: "higher"},
	ms("native.kernel_busy_ms"), ms("native.copy_busy_ms"), mb("native.copy_mb"),
	ratio("native.busy_frac", "higher"), ms("native.overhead_ms_per_iter"),
	ratio("native.iter_p90_over_p50", "lower"), ratio("native.speedup_vs_seq", "higher"),

	ns("region.get_ns"), ns("region.set_ns"), ns("region.get_multispan_ns"),
	{Name: "region.copy_field_mb_per_s", Unit: "MB/s", Better: "higher"},

	ms("ir.seq_iter_ms"), ms("ir.seq_run_ms"),

	exact("bench.cells"), exact("bench.cells_failed"),
	ratio("bench.trace_overhead_frac", "lower"), ratio("bench.trace_coverage", "higher"),
}

func declByName(decls []metricDecl) map[string]metricDecl {
	m := make(map[string]metricDecl, len(decls))
	for _, d := range decls {
		m[d.Name] = d
	}
	return m
}
