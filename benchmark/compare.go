package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of -compare. An end-to-end metric is worse when b's median is
// worse than a's by more than the metric's bound, unresolved when either
// side's run-to-run spread is wider than the bound (so the bound cannot
// tell a change from noise), and ok otherwise. An exact counter must be
// equal on both sides.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "mismatch"
	verdictInfo       = "-" // a per-layer timing: reported, not judged
)

// judge compares the medians of one end-to-end metric.
func judge(d metricDecl, a, b summary) string {
	if a.Spread > d.Bound || b.Spread > d.Bound {
		return verdictUnresolved
	}
	if worsening(d, a.Median, b.Median) > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

// worsening is how much worse b is than a, as a share of a: positive when
// a lower-is-better metric rose or a higher-is-better one fell.
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}

// compareResults prints one row per (workload, metric) — both medians, the
// ratio b/a with a as its base, the bound and the verdict — and reports
// whether nothing is worse, mismatched or failed.
func compareResults(w io.Writer, a, b *results) bool {
	ok := true
	fmt.Fprintf(w, "a: commit %s, %s, %d runs x %gs\nb: commit %s, %s, %d runs x %gs\n\n",
		a.Header.Commit, a.Header.Time, a.Header.Runs, a.Header.Seconds,
		b.Header.Commit, b.Header.Time, b.Header.Runs, b.Header.Seconds)
	fmt.Fprintf(w, "%-12s %-34s %-6s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "a", "b", "b/a", "bound", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	row := func(wl, metric, unit string, va, vb float64, bound, verdict string) {
		r := "n/a"
		if va != 0 {
			r = fmt.Sprintf("%.4f", vb/va)
		}
		fmt.Fprintf(w, "%-12s %-34s %-6s %14.6g %14.6g %9s %7s  %s\n", wl, metric, unit, va, vb, r, bound, verdict)
	}
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from b\n", name)
			ok = false
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-12s failed cells: a %d, b %d\n", name, wa.Failed, wb.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := judge(d, sa, sb)
			ok = ok && v != verdictWorse
			row(name, d.Name, d.Unit, sa.Median, sb.Median, fmt.Sprintf("%.0f%%", 100*d.Bound), v)
		}
		for _, d := range perLayer {
			la, lb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]
			v := verdictInfo
			if d.Exact {
				v = verdictOK
				if la.Value != lb.Value {
					v, ok = verdictMismatch, false
				}
			}
			if la.Value == 0 && lb.Value == 0 {
				continue // the layer is idle in this workload on both sides
			}
			row(name, d.Name, d.Unit, la.Value, lb.Value, "", v)
		}
	}
	return ok
}
