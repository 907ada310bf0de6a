package main

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cr"
	"repro/internal/realm"
)

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// count folds the counters one engine run exports into the pass: the
// layers are measured from outside, by reading what they already publish
// (cr.Compiled.Timings/Report, spmd and rt TraceStats, realm.Stats, the
// native scheduler's SchedStats). Names beginning with "_" are
// intermediate sums the derived metrics are computed from.
func (p *pass) count(o *runOut) {
	if o.plan != nil {
		p.countPlan(o.plan)
	}
	if r := o.aggRep; r != nil {
		p.add("verify.agg_groups", float64(r.Counters["agg_groups"]))
		p.add("verify.agg_merged_pairs", float64(r.Counters["merged_pairs"]))
	}
	p.add("spmd.captures", float64(o.strace.Captures))
	p.add("spmd.per_shard_captures", float64(o.strace.PerShardCaptures))
	p.add("spmd.specializations", float64(o.strace.Specializations))
	p.add("spmd.replayed_iters", float64(o.strace.ReplayedIters))
	p.add("rt.capture_iters", float64(o.rtrace.CaptureIters))
	p.add("rt.replayed_launches", float64(o.rtrace.ReplayedLaunches))
	p.add("rt.shared_points", float64(o.rtrace.SharedPoints))
	if f := o.faults; f != nil {
		p.add("spmd.restarts", float64(f.Restarts))
		p.add("spmd.checkpoints", float64(f.Checkpoints))
		p.add("realm.crashes", float64(len(f.Crashes)))
	}
	p.add("spmd.trace_ships", float64(o.stats.TraceShips))

	if o.stats.WallNanos > 0 { // a native run: its clock is the wall clock
		p.vals["native.workers"] = max(p.vals["native.workers"], float64(o.sched.Workers)) // pool size, not additive
		p.add("native.dispatches", float64(o.sched.Dispatches))
		p.add("native.steals", float64(o.sched.Steals))
		p.add("native.inline_completions", float64(o.sched.InlineCompletions))
		p.add("_native_wall_ns", float64(o.wall.Nanoseconds()))
		p.add("_native_iters", float64(len(o.iterTimes)))
		return
	}
	p.add("realm.events", float64(o.stats.Events))
	p.add("realm.messages", float64(o.stats.Messages))
	p.add("realm.bytes_sent", float64(o.stats.BytesSent))
	p.add("realm.tasks_run", float64(o.stats.TasksRun))
	p.add("realm.local_copies", float64(o.stats.LocalCopies))
	p.add("realm.agg_saved_messages", float64(o.stats.AggSavedMessages))
	p.add("realm.virtual_s", o.elapsed.Seconds())
	p.add("_des_wall_ns", float64(o.wall.Nanoseconds()))
	if o.plan != nil {
		p.add("_spmd_runs", 1)
		p.add("_spmd_alloc_mb", o.allocMB)
	}
}

// countPlan folds in what one compilation reports about itself.
func (p *pass) countPlan(c *cr.Compiled) {
	p.add("intersect.shallow_ms", float64(c.Timings.Shallow.Nanoseconds())/1e6)
	p.add("intersect.complete_ms", float64(c.Timings.Complete.Nanoseconds())/1e6)
	p.add("intersect.candidates", float64(c.Timings.Candidates))
	p.add("intersect.pairs", float64(c.Timings.Pairs))
	p.add("cr.copies_inserted", float64(c.Report.CopiesInserted))
	p.add("cr.copies_final", float64(c.Report.FinalCopies))
	p.add("cr.hoisted", float64(c.Report.Hoisted))
}

// busyRecorder is the realm.TimeRecorder the traced native runs attach: it
// sums the wall time of kernel bodies and copy bodies, which is what the
// cores spent on work as opposed to scheduling.
type busyRecorder struct {
	kernelNs, copyNs, copyBytes atomic.Int64
}

var _ realm.TimeRecorder = (*busyRecorder)(nil)

func (b *busyRecorder) ObserveLaunch(_ realm.Time, wallNs int64) { b.kernelNs.Add(wallNs) }

func (b *busyRecorder) ObserveCopy(bytes, wallNs int64) {
	b.copyNs.Add(wallNs)
	b.copyBytes.Add(bytes)
}

func (p *pass) countBusy(b *busyRecorder) {
	p.add("native.kernel_busy_ms", float64(b.kernelNs.Load())/1e6)
	p.add("native.copy_busy_ms", float64(b.copyNs.Load())/1e6)
	p.add("native.copy_mb", float64(b.copyBytes.Load())/(1<<20))
}

// plainValues are the per-layer metrics an untraced pass can give: the wall
// of each figure's RunFigure, which is the product path itself.
func plainValues(p *pass) map[string]float64 {
	out := map[string]float64{}
	for name, d := range p.cellWall {
		if strings.HasPrefix(name, "fig") {
			out[name+"_s"] = d.Seconds()
		}
	}
	return out
}

// tracedValues are the per-layer metrics of one traced pass: every span
// name X gives X_ms, its self time (the span minus the child spans it
// covers, so a span that wraps calls into other layers is not counted
// twice); the counters come from count, and the derived ones are computed
// here.
func tracedValues(p *pass) map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.vals {
		out[k] = v
	}
	t := map[string]float64{}
	for name, d := range selfTimes(p.tr.spans) {
		t[name] = float64(d.Nanoseconds()) / 1e6
		out[name+"_ms"] = t[name]
	}
	out["verdict_s"] = (t["verify.verify"] + t["verify.check_spec"] + t["verify.check_agg"]) / 1e3
	out["prune_s"] = t["verify.plan_prune"] / 1e3
	if ev := p.vals["realm.events"]; ev > 0 {
		out["realm.ns_per_event"] = p.vals["_des_wall_ns"] / ev
	}
	// Busy time is the wall time of kernel and copy bodies summed over the
	// pool's workers. The pool is larger than GOMAXPROCS (one worker per
	// node at least), so a body's wall includes the time its worker was
	// descheduled, and the share is taken of worker-time, not of CPU-time.
	if wall, iters, workers := p.vals["_native_wall_ns"], p.vals["_native_iters"], p.vals["native.workers"]; wall > 0 && iters > 0 && workers > 0 {
		busy := (p.vals["native.kernel_busy_ms"] + p.vals["native.copy_busy_ms"]) * 1e6
		out["native.busy_frac"] = busy / (workers * wall)
		out["native.overhead_ms_per_iter"] = (wall - busy/workers) / iters / 1e6
	}
	if p.vals["_spmd_runs"] > 0 {
		out["spmd.run_alloc_mb"] = p.vals["_spmd_alloc_mb"]
	}
	return out
}

// probeValues are the metrics of the once-per-run probes: spans become
// X_<nodes>_ms, so a 1024-node compile is reported beside, not inside, the
// compile time of the passes.
func probeValues(p *pass) map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.vals {
		out[k] = v
	}
	for _, s := range p.tr.spans {
		if s.Nodes == p.sz.probeNodes && p.sz.probeNodes > 0 {
			out[s.Name+"_1024_ms"] += float64((s.End - s.Start).Nanoseconds()) / 1e6
		}
	}
	if iters := p.vals["_seq_iters"]; iters > 0 {
		out["ir.seq_iter_ms"] = p.vals["ir.seq_run_ms"] / iters
	}
	return out
}

var nativePrograms = []string{"stencil", "miniaero", "pennant", "circuit", "heat_dsl"}

// sampleMetrics turns the pooled per-iteration samples of the untraced
// passes into metrics: the median per program, the geometric mean over
// programs (each program one row, averaged as ratios are), and the tail of
// the iteration-time distribution.
func sampleMetrics(pooled map[string][]float64, out map[string]float64) {
	var cr, implicit, speedups, normalized []float64
	for _, prog := range nativePrograms {
		if xs := pooled["native.iter_ms."+prog]; len(xs) > 0 {
			m := median(xs)
			out["native.iter_ms."+prog] = m
			cr = append(cr, m)
			if seq, nat := out["_seq_run_ms."+prog], out["_native_run_ms."+prog]; seq > 0 && nat > 0 {
				speedups = append(speedups, seq/nat)
			}
		}
		if xs := pooled["native.implicit_iter_ms."+prog]; len(xs) > 0 {
			out["native.implicit_iter_ms."+prog] = median(xs)
			implicit = append(implicit, median(xs))
		}
		for _, kind := range []string{"native.iter_ms.", "native.implicit_iter_ms."} {
			m := median(pooled[kind+prog])
			for _, x := range pooled[kind+prog] {
				normalized = append(normalized, x/m)
			}
		}
	}
	out["iter_ms"] = geomean(cr)
	out["iter_ms_implicit"] = geomean(implicit)
	out["native.speedup_vs_seq"] = geomean(speedups)
	// Each sample over its program's median; p90 of the pool when the pool
	// has ten samples beyond it (it does at the default run length), the
	// highest percentile that has otherwise.
	if len(normalized) > 0 {
		_, out["native.iter_p90_over_p50"] = tailPercentile(normalized)
	}
	if xs := pooled["lang.kernel_melem_per_s"]; len(xs) > 0 {
		out["lang.kernel_melem_per_s"] = median(xs)
	}
}
