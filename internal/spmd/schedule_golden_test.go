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

	"repro/internal/bench"
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
	// The engine configurations: plan memoized or re-resolved, shared
	// capture or per-shard. The first is the one the golden was made with.
	engines := []bench.MeasureOpts{{NoTrace: true}, {NoTrace: true, NoShare: true}, {}, {NoShare: true}}
	if *updateGolden {
		engines = engines[:1]
	}
	seen, barrierCells, trip1Cells, raggedCells := 0, 0, 0, 0
	for _, p := range goldenProgs() {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, variant := range []string{"plain", "agg", "prune"} {
				pieces := p.shards
				if variant == "agg" {
					pieces = 2 * p.shards
				}
				for _, mode := range []ir.ExecMode{ir.ExecModeled, ir.ExecReal} {
					modeName := "modeled"
					if mode == ir.ExecReal {
						modeName = "real"
					}
					key := fmt.Sprintf("%s/%v/%s/%s", p.name, sync, variant, modeName)
					seen++
					for i, opts := range engines {
						opts.Agg, opts.Prune = variant == "agg", variant == "prune"
						prog := p.build(pieces)
						mc := realm.DefaultConfig(p.shards)
						mc.CoresPerNode = 4 // the size the golden was recorded at
						res := must(t)(bench.RunCR(prog, bench.Config{MeasureOpts: opts, Nodes: p.shards, Sync: sync, Mode: mode, Exec: realm.MustNewSim(mc)}))
						label := fmt.Sprintf("%s NoTrace=%v NoShare=%v", key, opts.NoTrace, opts.NoShare)
						if i == 0 {
							if sync == cr.BarrierSync {
								barrierCells++
							}
							if hasTrip1(res.Plans) {
								trip1Cells++
							}
							if ragged(res.Plans) {
								raggedCells++
							}
						}
						got := scheduleCell{res.Elapsed, res.Stats}
						if *updateGolden {
							golden[key] = got
						} else if want, ok := golden[key]; !ok {
							t.Errorf("%s: no golden entry", key)
						} else if got != want {
							t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
						}
						if want := wantTrace(res.Plans, opts.NoTrace, opts.NoShare); res.CRTrace != want {
							t.Errorf("%s: trace counters\n got %+v\nwant %+v", label, res.CRTrace, want)
						}
						if mode == ir.ExecReal {
							if err := progtest.Diff(ir.ExecSequential(prog), res.SeqResult); err != nil {
								t.Errorf("%s: %v", label, err)
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
