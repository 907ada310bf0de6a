package harness

import (
	"reflect"
	"testing"

	"repro/internal/bench"
)

// sweepWithCounters runs the app's sweep under the options with a counter
// table of its own and returns the series (wall clock stripped), the
// formatted figure and the table.
func sweepWithCounters(t *testing.T, app App, opts bench.MeasureOpts, nodes []int, width int) ([]Series, string, map[string]int64) {
	t.Helper()
	app.Iters = 8
	app.Opts = opts
	app.Opts.Counters = &bench.Counters{}
	series, err := RunFigureParallel(app, nodes, width, nil)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(series)
	return series, FormatFigure(app, series), app.Opts.Counters.Snapshot()
}

// TestAblationsLeaveSeriesIdentical is the harness guarantee behind every
// ablation flag: a sweep under the option produces exactly the default
// sweep's series — same virtual per-iteration times, same throughputs, so
// the formatted figure is byte-identical — while the counter table shows the
// option did reach an engine. Tracing, sharing, aggregation and pruning
// change host work, messages and sync edges; the simulated schedule must not
// depend on them.
func TestAblationsLeaveSeriesIdentical(t *testing.T) {
	type table = map[string]int64
	cases := []struct {
		name  string
		opts  bench.MeasureOpts
		check func(t *testing.T, app string, def, got table)
	}{
		{"NoTrace", bench.MeasureOpts{NoTrace: true}, func(t *testing.T, _ string, def, got table) {
			for _, name := range []string{"spmd.replayed_iters", "rt.replayed_launches"} {
				if def[name] <= 0 || got[name] != 0 {
					t.Errorf("%s = %d untraced, %d by default; want 0 and > 0", name, got[name], def[name])
				}
			}
		}},
		{"NoShare", bench.MeasureOpts{NoShare: true}, func(t *testing.T, _ string, def, got table) {
			if got["spmd.per_shard_captures"] <= 0 || got["spmd.specializations"] != 0 {
				t.Errorf("unshared: %d per-shard captures, %d specializations; want > 0 and 0", got["spmd.per_shard_captures"], got["spmd.specializations"])
			}
			if def["spmd.per_shard_captures"] != 0 || def["spmd.specializations"] <= 0 {
				t.Errorf("default: %d per-shard captures, %d specializations; want 0 and > 0", def["spmd.per_shard_captures"], def["spmd.specializations"])
			}
		}},
		{"Agg", bench.MeasureOpts{Agg: true}, func(t *testing.T, _ string, def, got table) {
			if _, ok := def["verify.agg_groups"]; ok || got["verify.agg_groups"] <= 0 {
				t.Errorf("verify.agg_groups = %d aggregated, present by default = %v; want > 0 and absent", got["verify.agg_groups"], ok)
			}
		}},
		{"Prune", bench.MeasureOpts{Prune: true}, checkPruned},
		{"Agg+Prune", bench.MeasureOpts{Agg: true, Prune: true}, func(t *testing.T, app string, def, got table) {
			checkPruned(t, app, def, got)
			if got["verify.agg_groups"] <= 0 {
				t.Errorf("verify.agg_groups = %d, want > 0", got["verify.agg_groups"])
			}
		}},
	}
	for _, app := range Apps() {
		t.Run(app.Name, func(t *testing.T) {
			nodes := []int{2, 4, 8}
			switch {
			case testing.Short():
				nodes = []int{2, 4}
			case app.Name == "stencil":
				nodes = []int{1, 2, 4, 8, 16}
			}
			want, wantOut, def := sweepWithCounters(t, app, bench.MeasureOpts{}, nodes, 1)
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					got, gotOut, counters := sweepWithCounters(t, app, tc.opts, nodes, 1)
					// A merged transfer is one message where the default sends
					// several, so a cell that merged pairs (pennant's do) may
					// finish nanoseconds apart; its printed figure is still held.
					if counters["verify.agg_merged_pairs"] == 0 && !reflect.DeepEqual(got, want) {
						t.Errorf("series differ from the default's:\ndefault: %+v\n%s: %+v", want, tc.name, got)
					}
					if gotOut != wantOut {
						t.Errorf("formatted figures differ:\n--- default ---\n%s--- %s ---\n%s", wantOut, tc.name, gotOut)
					}
					tc.check(t, app.Name, def, counters)
				})
			}
		})
	}
}

// checkPruned: the prune pass certified every CR cell's schedule, and on
// pennant — whose dt reduction orders what its sync edges order again — it
// removed edges.
func checkPruned(t *testing.T, app string, _, got map[string]int64) {
	before, after := got["verify.sync_edges_before"], got["verify.sync_edges_after"]
	if before <= 0 || after > before || (app == "pennant" && after == before) {
		t.Errorf("%s: sync edges %d -> %d; want a certified schedule, pruned on pennant", app, before, after)
	}
}

// TestCountersIndependentOfSweepWidth: the counter table is a sum over
// cells, so a parallel sweep fills it with what the sequential sweep does.
func TestCountersIndependentOfSweepWidth(t *testing.T) {
	app, err := AppByName("pennant")
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.MeasureOpts{Agg: true, Prune: true}
	_, _, want := sweepWithCounters(t, app, opts, []int{1, 2, 4}, 1)
	for _, name := range []string{"rt.replayed_launches", "spmd.replayed_iters", "verify.agg_groups", "verify.sync_edges_before", "realm.messages"} {
		if want[name] <= 0 {
			t.Errorf("%s = %d at width 1, want > 0", name, want[name])
		}
	}
	for _, width := range []int{2, 8} {
		if _, _, got := sweepWithCounters(t, app, opts, []int{1, 2, 4}, width); !reflect.DeepEqual(got, want) {
			t.Errorf("width %d: counters %v, want %v", width, got, want)
		}
	}
}
