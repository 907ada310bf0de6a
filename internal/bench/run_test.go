package bench

import (
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/region"
)

// dependentLaunch builds a two-iteration loop over one launch of task t
// whose point tasks are not independent: with pair false it writes x
// through the aliased image partition IMG; with pair true it writes x
// through the block partition PR and reads x through IMG.
func dependentLaunch(pair bool) *ir.Program {
	p := ir.NewProgram("dependent")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	img := region.Image(r, pr, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + 1) % 16)}
	})
	task := &ir.TaskDecl{Name: "t", Params: []ir.Param{{Priv: ir.PrivReadWrite, Fields: []region.FieldID{x}}}}
	args := []ir.RegionArg{{Part: img}}
	if pair {
		task.Params = append(task.Params, ir.Param{Priv: ir.PrivRead, Fields: []region.FieldID{x}})
		args = []ir.RegionArg{{Part: pr}, {Part: img}}
	}
	task.Kernel = func(*ir.TaskCtx) {}
	p.Add(&ir.Loop{Var: "t", Trip: 2, Body: []ir.Stmt{&ir.Launch{Task: task, Domain: ir.Colors1D(4), Args: args}}})
	return p
}

// TestRejectionIdenticalInEveryConfiguration: a launch whose tasks are not
// independent is refused with one text by both engines, under every
// lowering, aggregation and trace setting, on both backends; only the
// "rt: " prefix realm.RunControl puts on the implicit runtime's errors
// differs.
func TestRejectionIdenticalInEveryConfiguration(t *testing.T) {
	type row struct {
		name     string
		implicit bool
		cfg      Config
	}
	var rows []row
	for _, backend := range []string{BackendDES, BackendNative} {
		o := MeasureOpts{Backend: backend}
		agg := o
		agg.Agg = true
		noTrace := o
		noTrace.NoTrace = true
		rows = append(rows,
			row{backend + "/cr p2p", false, Config{MeasureOpts: o, Nodes: 2}},
			row{backend + "/cr barrier", false, Config{MeasureOpts: o, Nodes: 2, Sync: cr.BarrierSync}},
			row{backend + "/cr agg", false, Config{MeasureOpts: agg, Nodes: 2}},
			row{backend + "/implicit trace", true, Config{MeasureOpts: o, Nodes: 2}},
			row{backend + "/implicit no trace", true, Config{MeasureOpts: noTrace, Nodes: 2}},
		)
	}
	for _, pair := range []bool{false, true} {
		want := "ir: launch t writes aliased partition IMG; tasks of one launch must be independent"
		if pair {
			want = "ir: launch t has conflicting aliased arguments 0 and 1"
		}
		var first, firstRow string
		for _, r := range rows {
			run := RunCR
			if r.implicit {
				run = RunImplicit
			}
			_, err := run(dependentLaunch(pair), r.cfg)
			if err == nil {
				t.Errorf("pair=%v %s: accepted", pair, r.name)
				continue
			}
			msg := strings.TrimPrefix(err.Error(), "rt: ")
			if first == "" {
				first, firstRow = msg, r.name
				if !strings.HasPrefix(msg, want) {
					t.Errorf("pair=%v %s: %q, want it to start with %q", pair, r.name, msg, want)
				}
			} else if msg != first {
				t.Errorf("pair=%v %s: %q, %s said %q", pair, r.name, msg, firstRow, first)
			}
		}
	}
}
