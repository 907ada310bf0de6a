// Pinned schedules: the reference role the shard interpreter used to play,
// moved to data. testdata/schedule_golden.json records virtual time and the
// full machine counters of every {program} x {p2p, barrier} x {plain, agg,
// prune} x {Modeled, Real} cell, generated with NoTrace on the commit that
// still had the interpreter. Every way the engine can run a cell — plan
// memoized or re-resolved each iteration, shared capture or per-shard —
// must land exactly those numbers and the trace counters the memoization
// and sharing rules predict (wantTrace), and Real cells must also leave
// stores and scalars bitwise equal to sequential semantics.
//
// Regenerate (only when a schedule change is intended) with
//
//	go test ./internal/spmd/ -run TestScheduleGolden -update
package spmd_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/schedule_golden.json from a NoTrace run")

const scheduleGoldenPath = "testdata/schedule_golden.json"

// scheduleCell is one pinned run: virtual time plus every machine counter.
type scheduleCell struct {
	Elapsed realm.Time
	Stats   realm.Stats
}

// goldenProg is one program of the matrix. build takes the piece count so
// the apps can be overdecomposed for the aggregation cells; the progtest
// programs have fixed shapes (already several colors per shard).
type goldenProg struct {
	name   string
	shards int
	build  func(pieces int) *ir.Program
}

func goldenProgs() []goldenProg {
	progs := []goldenProg{
		{"figure2", 4, func(int) *ir.Program { return progtest.NewFigure2(48, 8, 6).Prog }},
		{"regionReduce", 4, func(int) *ir.Program { return progtest.NewRegionReduce(32, 4, 3).Prog }},
		{"scalarSum", 4, func(int) *ir.Program { return progtest.NewScalarSum(40, 8).Prog }},
	}
	for _, app := range pruneApps {
		progs = append(progs, goldenProg{app.name, 4, app.build})
	}
	// Random programs have 3..6 colors, so three shards own ragged blocks
	// whenever the count is 4 or 5, and their loops run 1..3 times.
	for seed := int64(1); seed <= 10; seed++ {
		progs = append(progs, goldenProg{fmt.Sprintf("random%d", seed), 3, func(int) *ir.Program {
			prog, _, _ := progtest.RandomProgram(seed)
			return prog
		}})
	}
	return progs
}

// goldenRun is one engine run of a matrix cell.
type goldenRun struct {
	prog  *ir.Program
	plans map[*ir.Loop]*cr.Compiled
	res   *spmd.Result
	trace spmd.TraceStats
}

// runGoldenCell compiles and runs one cell on the DES.
func runGoldenCell(t *testing.T, p goldenProg, sync cr.SyncMode, variant string, mode ir.ExecMode, noTrace, noShare bool) goldenRun {
	t.Helper()
	pieces := p.shards
	if variant == "agg" {
		pieces = 2 * p.shards
	}
	prog := p.build(pieces)
	plans := compileVariant(t, prog, p.shards, sync, variant == "agg", variant == "prune")
	cfg := realm.DefaultConfig(p.shards)
	cfg.CoresPerNode = 4
	eng := spmd.New(realm.MustNewSim(cfg), prog, mode, plans)
	eng.NoTrace, eng.NoShare = noTrace, noShare
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{prog, plans, res, eng.TraceStats()}
}

// wantTrace is the executor's memoization and sharing rules as data: a
// fault-free run memoizes every shard's plan iff NoTrace is unset — one
// resolution per shard per loop, every shard-iteration executed from it —
// and shares one capture per loop iff NoShare is unset as well. Sync
// lowering, trip count and block shape play no part.
func wantTrace(plans map[*ir.Loop]*cr.Compiled, noTrace, noShare bool) spmd.TraceStats {
	var want spmd.TraceStats
	if noTrace {
		return want
	}
	for loop, plan := range plans {
		shards := plan.Opts.NumShards
		want.ReplayedIters += shards * loop.Trip
		if noShare {
			want.PerShardCaptures += shards
		} else {
			want.Captures++
			want.Specializations += shards
		}
	}
	return want
}

// ragged reports whether some loop's shards own unequal color blocks.
func ragged(plans map[*ir.Loop]*cr.Compiled) bool {
	for _, plan := range plans {
		for _, owned := range plan.Owned {
			if len(owned) != len(plan.Owned[0]) {
				return true
			}
		}
	}
	return false
}

// hasTrip1 reports whether some loop runs exactly once.
func hasTrip1(plans map[*ir.Loop]*cr.Compiled) bool {
	for loop := range plans {
		if loop.Trip == 1 {
			return true
		}
	}
	return false
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
	type engineCfg struct{ noTrace, noShare bool }
	cfgs := []engineCfg{{true, false}, {true, true}, {false, false}, {false, true}}
	if *updateGolden {
		cfgs = cfgs[:1]
	}
	seen, barrierCells, trip1Cells, raggedCells := 0, 0, 0, 0
	for _, p := range goldenProgs() {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, variant := range []string{"plain", "agg", "prune"} {
				for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
					modeName := "modeled"
					if mode == ir.ExecReal {
						modeName = "real"
					}
					key := fmt.Sprintf("%s/%v/%s/%s", p.name, sync, variant, modeName)
					seen++
					for i, c := range cfgs {
						run := runGoldenCell(t, p, sync, variant, mode, c.noTrace, c.noShare)
						if i == 0 {
							if sync == cr.BarrierSync {
								barrierCells++
							}
							if hasTrip1(run.plans) {
								trip1Cells++
							}
							if ragged(run.plans) {
								raggedCells++
							}
						}
						got := scheduleCell{run.res.Elapsed, run.res.Stats}
						if *updateGolden {
							golden[key] = got
						} else if want, ok := golden[key]; !ok {
							t.Errorf("%s: no golden entry", key)
						} else if got != want {
							t.Errorf("%s NoTrace=%v NoShare=%v:\n got %+v\nwant %+v", key, c.noTrace, c.noShare, got, want)
						}
						if want := wantTrace(run.plans, c.noTrace, c.noShare); run.trace != want {
							t.Errorf("%s NoTrace=%v NoShare=%v: trace counters\n got %+v\nwant %+v", key, c.noTrace, c.noShare, run.trace, want)
						}
						if mode == ir.ExecReal {
							if err := progtest.Diff(ir.ExecSequential(run.prog), seqOf(run.res)); err != nil {
								t.Errorf("%s NoTrace=%v NoShare=%v: %v", key, c.noTrace, c.noShare, err)
							}
						}
					}
				}
			}
		}
	}
	if barrierCells == 0 || trip1Cells == 0 || raggedCells == 0 {
		t.Errorf("matrix has %d barrier, %d trip-1 and %d ragged cells; want at least one of each", barrierCells, trip1Cells, raggedCells)
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
