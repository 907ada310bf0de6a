package verify_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/verify"
)

// TestMalformedPairsAreErrors: a copy pair the certifier's dense instance
// index cannot hold — a colour outside the launch domain, or a reduction
// folding a temporary no body launch reduces into — is an error naming the
// copy and pair from every entry point, not an index panic.
func TestMalformedPairsAreErrors(t *testing.T) {
	var prog *ir.Program
	var loop *ir.Loop
	for _, app := range evalApps {
		if app.name == "pennant" {
			prog, loop = app.build(4)
		}
	}
	corruptions := []struct {
		name, want string
		corrupt    func(c *cr.Compiled) *cr.CopyOp
	}{
		{"colour outside the domain", "outside the launch domain", func(c *cr.Compiled) *cr.CopyOp {
			for _, op := range c.Body {
				if cp := op.Copy; cp != nil && len(cp.Pairs) > 0 {
					// Copies between one partition pair share a pair list.
					cp.Pairs = slices.Clone(cp.Pairs)
					cp.Pairs[0].Dst = geometry.Pt1(-1)
					return cp
				}
			}
			return nil
		}},
		{"foreign reduce temporary", "no body launch reduces into", func(c *cr.Compiled) *cr.CopyOp {
			for _, op := range c.Body {
				if cp := op.Copy; cp != nil && cp.SrcLaunch != nil && len(cp.Pairs) > 0 {
					cp.SrcArg = len(cp.SrcLaunch.Args)
					return cp
				}
			}
			return nil
		}},
	}
	entries := []struct {
		name string
		run  func(c *cr.Compiled) error
	}{
		{"Analyze", func(c *cr.Compiled) error { _, err := verify.Analyze(c); return err }},
		{"PlanPrune", func(c *cr.Compiled) error { _, _, err := verify.PlanPrune(c); return err }},
		{"CheckAgg", func(c *cr.Compiled) error { _, err := verify.CheckAgg(c); return err }},
		{"Certify", func(c *cr.Compiled) error { _, err := verify.Certify(c, true); return err }},
	}
	for _, agg := range []bool{false, true} {
		for _, tc := range corruptions {
			for _, e := range entries {
				c := compileApp(t, prog, loop, cr.Options{NumShards: 4, Agg: agg})
				cp := tc.corrupt(c)
				if cp == nil {
					t.Fatalf("%s: pennant has no copy to corrupt", tc.name)
				}
				err := e.run(c)
				want := fmt.Sprintf("copy %d pair 0", cp.ID)
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("agg=%v %s: %s returned %v, want an error naming %q and %q", agg, tc.name, e.name, err, want, tc.want)
				}
			}
		}
	}
}

// TestMalformedExchangesAreErrors: a compiled exchange the replay cannot
// index — a member pair outside its copy, a span over a non-copy op — is an
// error from every entry point, aggregated or not, not an index panic.
func TestMalformedExchangesAreErrors(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	corruptions := []struct {
		name, want string
		corrupt    func(c *cr.Compiled) bool
	}{
		{"member pair out of range", "outside the exchange", func(c *cr.Compiled) bool {
			for _, x := range c.Exchanges {
				for _, steps := range x.Steps {
					for _, st := range steps {
						if st.Produce {
							st.Members[0].Pair = 999
							return true
						}
					}
				}
			}
			return false
		}},
		{"span over a launch", "not a copy", func(c *cr.Compiled) bool {
			for i := range c.Exchanges {
				if x := &c.Exchanges[i]; x.End > i && x.End < len(c.Body) && c.Body[x.End].Copy == nil {
					x.End++
					return true
				}
			}
			return false
		}},
	}
	entries := []struct {
		name string
		run  func(c *cr.Compiled) error
	}{
		{"Analyze", func(c *cr.Compiled) error { _, err := verify.Analyze(c); return err }},
		{"PlanPrune", func(c *cr.Compiled) error { _, _, err := verify.PlanPrune(c); return err }},
		{"Certify", func(c *cr.Compiled) error { _, err := verify.Certify(c, true); return err }},
	}
	for _, agg := range []bool{false, true} {
		for _, tc := range corruptions {
			for _, e := range entries {
				c := compileApp(t, f.Prog, f.Loop, cr.Options{NumShards: 4, Agg: agg})
				if !tc.corrupt(c) {
					t.Fatalf("%s: figure2 has no exchange to corrupt", tc.name)
				}
				if err := e.run(c); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("agg=%v %s: %s returned %v, want an error naming %q", agg, tc.name, e.name, err, tc.want)
				}
			}
		}
	}
}

// TestConflictsArePruneInvariant pins the invariant PlanPrune's conflict
// reuse rests on: under any prune without a dead init — here seeded random
// subsets of the war, done and chain slots, certifiable or not — the
// schedule's access list and its enumerated conflicts are the unpruned
// schedule's, access for access and pair for pair.
func TestConflictsArePruneInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	changed := 0
	check := func(name string, c *cr.Compiled) {
		base, err := verify.AnalyzePruned(c, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := base.ConflictPairs()
		for draw := 0; draw < 3; draw++ {
			info, p := &cr.PruneInfo{}, rng.Float64()
			for _, op := range c.Body {
				if cp := op.Copy; cp != nil {
					for k, n := 0, len(cp.Pairs); k < n; k++ {
						info.SetWar(cp.ID, k, n, rng.Float64() < p)
						info.SetDone(cp.ID, k, n, rng.Float64() < p)
						info.SetChain(cp.ID, k, n, rng.Float64() < p)
					}
				}
			}
			a, err := verify.AnalyzePruned(c, info)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.SyncEdges() != base.SyncEdges() {
				changed++
			}
			if err := a.SameAccesses(base); err != nil {
				t.Errorf("%s draw %d: %v", name, draw, err)
			}
			if got := a.ConflictPairs(); !slices.Equal(got, want) {
				t.Errorf("%s draw %d: %d conflicts differ from the unpruned schedule's %d", name, draw, len(got), len(want))
			}
		}
	}
	for _, agg := range []bool{false, true} {
		for _, sync := range syncModes {
			for i, app := range evalApps {
				prog, loop := witnessProgram(i, 8)
				check(fmt.Sprintf("%s/%v/agg=%v", app.name, sync, agg), compileApp(t, prog, loop, cr.Options{NumShards: 4, Sync: sync, Agg: agg}))
			}
			for seed := int64(0); seed < 30; seed++ {
				prog, _, _ := progtest.RandomProgram(seed)
				for li, s := range prog.Stmts {
					if loop, ok := s.(*ir.Loop); ok {
						check(fmt.Sprintf("random%d/loop%d/%v/agg=%v", seed, li, sync, agg), compileApp(t, prog, loop, cr.Options{NumShards: 3, Sync: sync, Agg: agg}))
					}
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("no draw changed a schedule; the test is vacuous")
	}
}

// TestPlanPruneConcurrent: PlanPrune and Certify keep every per-plan value
// in their own call, so the four applications planned on parallel
// goroutines come out exactly as planned one after another — the same
// PruneInfo, the same suite JSON — and the race detector sees nothing
// shared.
func TestPlanPruneConcurrent(t *testing.T) {
	const goroutines = 2
	var wg sync.WaitGroup
	for i, app := range evalApps {
		prog, loop := witnessProgram(i, 8)
		plan := func() *cr.Compiled { return compileApp(t, prog, loop, cr.Options{NumShards: 4}) }
		shared := plan()
		wantInfo, _, err := verify.PlanPrune(shared)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := verify.Certify(plan(), true)
		if err != nil {
			t.Fatal(err)
		}
		wantSuite, _ := json.Marshal(suite)
		for g := 0; g < goroutines; g++ {
			mine := plan()
			wg.Add(2)
			go func() {
				defer wg.Done()
				if info, _, err := verify.PlanPrune(shared); err != nil || !reflect.DeepEqual(info, wantInfo) {
					t.Errorf("%s: concurrent PlanPrune returned %+v, %v; sequential %+v", app.name, info, err, wantInfo)
				}
			}()
			go func() {
				defer wg.Done()
				suite, err := verify.Certify(mine, true)
				if got, _ := json.Marshal(suite); err != nil || !bytes.Equal(got, wantSuite) {
					t.Errorf("%s: concurrent Certify suite differs from the sequential one (%v)", app.name, err)
				}
			}()
		}
	}
	wg.Wait()
}
