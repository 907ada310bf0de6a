// Pinned schedules of the implicit runtime. testdata/schedule_golden.json
// records, for every {program} x {1, 4 nodes} x {ir.ExecModeled, ir.ExecReal} cell, the
// virtual time of the run and of every iteration, every machine counter, the
// trace counters and (Real mode) a hash of each final store, generated on the commit that still issued a
// replayed launch through its own function. Random programs trip 1-3 times
// and never reach replay, so the loops here run long enough to capture,
// promote and replay, and two fixtures cover invalidate -> re-capture ->
// re-promote and abandonment. A cell run with NoTrace must land the same
// schedule, and Real cells must leave stores bitwise equal to sequential
// semantics.
//
// Regenerate (only when a schedule change is intended) with
//
//	go test ./internal/rt/ -run TestScheduleGolden -update
package rt_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps/circuit"
	"repro/internal/apps/miniaero"
	"repro/internal/apps/pennant"
	"repro/internal/apps/stencil"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/schedule_golden.json from a traced run")

const scheduleGoldenPath = "testdata/schedule_golden.json"

// scheduleCell is one pinned run. Trace is the trace-on run's counters (a
// NoTrace run has none); everything else must be the same with tracing off.
type scheduleCell struct {
	Elapsed   realm.Time
	IterTimes [][]realm.Time // per top-level loop, in program order
	Stats     realm.Stats
	Trace     rt.TraceStats
	Stores    map[string]string `json:",omitempty"` // Real mode: region name -> FNV-1a of its fields' bits
	Err       string            `json:",omitempty"`
}

// goldenTrip is long enough for a stationary loop to promote (two capture
// iterations agree) and then replay for several iterations.
const goldenTrip = 10

// goldenProg is one program of the matrix. build runs once per engine run:
// region identities are per instance, and the repartition fixture mutates
// its own launch. A nil mapper is the engine's default.
type goldenProg struct {
	name   string
	build  func(nodes int) *ir.Program
	mapper rt.Mapper
}

func goldenProgs() []goldenProg {
	return []goldenProg{
		{"stencil", func(n int) *ir.Program {
			cfg := stencil.Small(n)
			cfg.Iters = goldenTrip
			return stencil.Build(cfg).Prog
		}, nil},
		{"miniaero", func(n int) *ir.Program {
			cfg := miniaero.Small(n)
			cfg.Iters = goldenTrip
			return miniaero.Build(cfg).Prog
		}, nil},
		{"pennant", func(n int) *ir.Program {
			cfg := pennant.Small(n)
			cfg.Iters = goldenTrip
			return pennant.Build(cfg).Prog
		}, nil},
		{"circuit", func(n int) *ir.Program {
			cfg := circuit.Small(n)
			cfg.Iters = goldenTrip
			return circuit.Build(cfg).Prog
		}, nil},
		{"figure2", func(int) *ir.Program { return progtest.NewFigure2(96, 8, goldenTrip).Prog }, nil},
		// Neighbouring colors on different nodes: most edges move data.
		{"figure2Cyclic", func(int) *ir.Program { return progtest.NewFigure2(96, 8, goldenTrip).Prog }, rt.CyclicMapper{}},
		// The reducer and the readers it never dominates pile up in the epoch
		// lists, so these two loops are abandoned; in Real mode pastBlock
		// refuses color 0's read past its block at the first task.
		{"regionReduce", func(int) *ir.Program { return progtest.NewRegionReduce(32, 4, goldenTrip).Prog }, nil},
		{"pastBlock", func(int) *ir.Program { return progtest.NewPastBlock(32, 4, goldenTrip).Prog }, nil},
		{"scalarSum", func(int) *ir.Program { return progtest.NewScalarSum(40, 8).Prog }, nil},
		{"repartition", func(int) *ir.Program {
			prog, _, _ := rt.RepartitionProgram(64, 8, 14, 6, false)
			return prog
		}, nil},
		{"nonStationary", func(int) *ir.Program { return rt.NonStationaryProgram() }, nil},
	}
}

// hashStores folds each store's fields, in field order, into one FNV-1a
// value per region name.
func hashStores(stores map[*region.Region]*region.Store) map[string]string {
	if len(stores) == 0 {
		return nil
	}
	out := make(map[string]string, len(stores))
	for r, st := range stores {
		h := fnv.New64a()
		var b [8]byte
		for _, f := range st.FieldSpace().Fields() {
			for _, v := range st.Raw(f) {
				bits := math.Float64bits(v)
				for i := range b {
					b[i] = byte(bits >> (8 * i))
				}
				h.Write(b[:])
			}
		}
		out[r.Name()] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

// runGoldenCell runs one freshly built program on the DES. The overheads
// exercise every term of the control thread's charge and the noise scaling
// of kernel durations.
func runGoldenCell(p goldenProg, nodes int, mode ir.ExecMode, noTrace bool) scheduleCell {
	cfg := realm.DefaultConfig(nodes)
	cfg.CoresPerNode = 4
	prog := p.build(nodes)
	eng := rt.New(realm.MustNewSim(cfg), prog, mode)
	if p.mapper != nil {
		eng.Map = p.mapper
	}
	eng.Over.LaunchPerSub = realm.Microseconds(1)
	eng.Over.Noise = realm.SpikeNoise(0.3, 0.5, 7)
	eng.NoTrace = noTrace
	res, err := eng.Run()
	if err != nil {
		return scheduleCell{Err: err.Error(), Trace: eng.TraceStats()}
	}
	cell := scheduleCell{Elapsed: res.Elapsed, Stats: res.Stats, Trace: eng.TraceStats(), Stores: hashStores(res.Stores)}
	for _, s := range prog.Stmts {
		if l, ok := s.(*ir.Loop); ok {
			cell.IterTimes = append(cell.IterTimes, res.IterTimes[l])
		}
	}
	return cell
}

func TestScheduleGolden(t *testing.T) {
	golden := map[string]scheduleCell{}
	if !*updateGolden {
		raw, err := os.ReadFile(scheduleGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	replayed := 0
	for _, p := range goldenProgs() {
		for _, nodes := range []int{1, 4} {
			for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
				modeName := "modeled"
				if mode == ir.ExecReal {
					modeName = "real"
				}
				key := fmt.Sprintf("%s/%d/%s", p.name, nodes, modeName)
				seen++
				on := runGoldenCell(p, nodes, mode, false)
				off := runGoldenCell(p, nodes, mode, true)
				replayed += on.Trace.ReplayedLaunches

				if off.Trace != (rt.TraceStats{}) {
					t.Errorf("%s: NoTrace run has trace activity %+v", key, off.Trace)
				}
				off.Trace = on.Trace
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s: trace on and off diverge:\n  on %+v\n off %+v", key, on, off)
				}
				if *updateGolden {
					golden[key] = on
				} else if want, ok := golden[key]; !ok {
					t.Errorf("%s: no golden entry", key)
				} else if !reflect.DeepEqual(on, want) {
					t.Errorf("%s:\n got %+v\nwant %+v", key, on, want)
				}
				if mode == ir.ExecReal && on.Err == "" {
					seq := hashStores(ir.ExecSequential(p.build(nodes)).Stores)
					if !reflect.DeepEqual(on.Stores, seq) {
						t.Errorf("%s: stores %v, sequential semantics give %v", key, on.Stores, seq)
					}
				}
			}
		}
	}
	if replayed == 0 {
		t.Error("no cell replayed a launch; the matrix no longer reaches replay")
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(scheduleGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scheduleGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(golden) != seen {
		t.Errorf("golden has %d cells, the matrix has %d", len(golden), seen)
	}
}
