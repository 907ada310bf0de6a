// Pinned schedules: the reference role the shard interpreter used to play,
// moved to data. testdata/schedule_golden.json records virtual time and the
// full machine counters of every {program} x {p2p, barrier} x {plain, agg,
// prune} x {Modeled, Real} cell, generated with NoTrace on the commit that
// still had the interpreter. Every way the engine can run a cell — plan
// memoized or re-resolved each iteration, shared capture or per-shard —
// must land exactly those numbers, and Real cells must also leave stores
// bitwise equal to sequential semantics.
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
	// (the compiler marks those unshareable: the per-shard fallback runs).
	for seed := int64(1); seed <= 10; seed++ {
		progs = append(progs, goldenProg{fmt.Sprintf("random%d", seed), 3, func(int) *ir.Program {
			prog, _, _ := progtest.RandomProgram(seed)
			return prog
		}})
	}
	return progs
}

// runGoldenCell compiles and runs one cell on the DES.
func runGoldenCell(t *testing.T, p goldenProg, sync cr.SyncMode, variant string, mode ir.ExecMode, noTrace, noShare bool) (*ir.Program, *spmd.Result) {
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
	return prog, res
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
	seen := 0
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
					for _, c := range cfgs {
						prog, res := runGoldenCell(t, p, sync, variant, mode, c.noTrace, c.noShare)
						got := scheduleCell{res.Elapsed, res.Stats}
						if *updateGolden {
							golden[key] = got
						} else if want, ok := golden[key]; !ok {
							t.Errorf("%s: no golden entry", key)
						} else if got != want {
							t.Errorf("%s NoTrace=%v NoShare=%v:\n got %+v\nwant %+v", key, c.noTrace, c.noShare, got, want)
						}
						if mode == ir.ExecReal {
							assertStoresBitwiseEqual(t, ir.ExecSequential(prog).Stores, res.Stores)
						}
					}
				}
			}
		}
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
