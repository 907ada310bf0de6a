package spmd

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/region"
	"repro/internal/rt"
)

func testConfig(nodes int) realm.Config {
	cfg := realm.DefaultConfig(nodes)
	cfg.CoresPerNode = 4
	return cfg
}

// runCR compiles every loop and executes the program under SPMD.
func runCR(t *testing.T, prog *ir.Program, nodes, shards int, sync cr.SyncMode, mode ir.ExecMode) *Result {
	t.Helper()
	plans, err := CompileAll(prog, cr.Options{NumShards: shards, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, prog, mode, plans)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEqualStores(t *testing.T, want *region.Store, got *region.Store, r *region.Region, f region.FieldID) {
	t.Helper()
	if !got.EqualOn(want, f, r.IndexSpace()) {
		bad := 0
		r.IndexSpace().Each(func(p geometry.Point) bool {
			if got.Get(f, p) != want.Get(f, p) {
				if bad < 5 {
					t.Errorf("%s[%v] field %d = %v, want %v", r.Name(), p, f, got.Get(f, p), want.Get(f, p))
				}
				bad++
			}
			return true
		})
		t.Fatalf("store mismatch on %s field %d (%d points differ)", r.Name(), f, bad)
	}
}

func TestCRMatchesSequentialFigure2(t *testing.T) {
	for _, tc := range []struct {
		n, nt  int64
		trip   int
		nodes  int
		shards int
		sync   cr.SyncMode
	}{
		{24, 4, 1, 1, 1, cr.PointToPoint},
		{24, 4, 3, 2, 2, cr.PointToPoint},
		{48, 8, 4, 4, 4, cr.PointToPoint},
		{48, 8, 4, 4, 4, cr.BarrierSync},
		{30, 5, 2, 3, 3, cr.PointToPoint}, // colors not divisible
		{48, 8, 3, 2, 4, cr.PointToPoint}, // more shards than nodes
		{48, 8, 3, 8, 4, cr.PointToPoint}, // shards = colors
	} {
		f := progtest.NewFigure2(tc.n, tc.nt, tc.trip)
		seq := ir.ExecSequential(f.Prog)
		res := runCR(t, f.Prog, tc.nodes, tc.shards, tc.sync, ir.ExecReal)
		assertEqualStores(t, seq.Stores[f.A], res.Stores[f.A], f.A, f.Val)
		assertEqualStores(t, seq.Stores[f.B], res.Stores[f.B], f.B, f.Val)
	}
}

func TestCRScalarReduction(t *testing.T) {
	f := progtest.NewScalarSum(40, 8)
	seq := ir.ExecSequential(f.Prog)
	res := runCR(t, f.Prog, 4, 4, cr.PointToPoint, ir.ExecReal)
	if res.Env["total"] != seq.Env["total"] {
		t.Errorf("total = %v, want %v", res.Env["total"], seq.Env["total"])
	}
	if res.Env["doubled"] != seq.Env["doubled"] {
		t.Errorf("doubled = %v, want %v", res.Env["doubled"], seq.Env["doubled"])
	}
}

func TestCRRegionReduction(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		f := progtest.NewRegionReduce(32, 4, 3)
		seq := ir.ExecSequential(f.Prog)
		res := runCR(t, f.Prog, 4, 4, sync, ir.ExecReal)
		out := f.Prog.FieldSpaces[f.R].Field("out")
		assertEqualStores(t, seq.Stores[f.R], res.Stores[f.R], f.R, f.Acc)
		assertEqualStores(t, seq.Stores[f.R], res.Stores[f.R], f.R, out)
	}
}

func TestCRDeterministic(t *testing.T) {
	run := func() (realm.Time, realm.Stats) {
		f := progtest.NewFigure2(48, 8, 3)
		res := runCR(t, f.Prog, 4, 4, cr.PointToPoint, ir.ExecReal)
		return res.Elapsed, res.Stats
	}
	e1, s1 := run()
	for i := 0; i < 3; i++ {
		e2, s2 := run()
		if e1 != e2 || s1 != s2 {
			t.Fatalf("non-deterministic: %v/%+v vs %v/%+v", e1, s1, e2, s2)
		}
	}
}

func TestCRModeledMatchesRealTiming(t *testing.T) {
	f1 := progtest.NewFigure2(64, 8, 3)
	r1 := runCR(t, f1.Prog, 4, 4, cr.PointToPoint, ir.ExecReal)
	f2 := progtest.NewFigure2(64, 8, 3)
	r2 := runCR(t, f2.Prog, 4, 4, cr.PointToPoint, ir.ExecModeled)
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("Real %v != Modeled %v", r1.Elapsed, r2.Elapsed)
	}
	if len(r2.Stores) != 0 {
		t.Error("modeled mode should not allocate stores")
	}
}

func TestCRIterTimesRecorded(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 5)
	res := runCR(t, f.Prog, 4, 4, cr.PointToPoint, ir.ExecModeled)
	times := res.IterTimes[f.Loop]
	if len(times) != 5 {
		t.Fatalf("iteration times = %v", times)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Errorf("iteration completions not increasing: %v", times)
		}
	}
}

// TestCRBeatsImplicitAtScale is the headline property (Figures 6-9): with
// many nodes and short tasks, the implicit runtime's serial control thread
// dominates, while control replication's per-shard control cost stays flat.
func TestCRBeatsImplicitAtScale(t *testing.T) {
	nodes := 32
	build := func() *progtest.Figure2 {
		f := progtest.NewFigure2(int64(nodes)*64, int64(nodes), 6)
		return f
	}

	fImp := build()
	simImp := realm.MustNewSim(testConfig(nodes))
	impl := rt.New(simImp, fImp.Prog, ir.ExecModeled)
	resImp, err := impl.Run()
	if err != nil {
		t.Fatal(err)
	}
	timesImp := resImp.IterTimes[fImp.Loop]
	perIterImp := (timesImp[5] - timesImp[1]) / 4

	fCR := build()
	resCR := runCR(t, fCR.Prog, nodes, nodes, cr.PointToPoint, ir.ExecModeled)
	timesCR := resCR.IterTimes[fCR.Loop]
	perIterCR := (timesCR[5] - timesCR[1]) / 4

	if perIterCR*4 > perIterImp {
		t.Errorf("CR per-iteration %v should be well below implicit %v at %d nodes", perIterCR, perIterImp, nodes)
	}
}

// TestP2PBeatsBarriers checks the §3.4 optimization: point-to-point sync
// scales better than the naive global barriers when only neighbors
// communicate.
func TestP2PBeatsBarriers(t *testing.T) {
	nodes := 16
	run := func(sync cr.SyncMode) realm.Time {
		f := progtest.NewFigure2(int64(nodes)*16, int64(nodes), 8)
		res := runCR(t, f.Prog, nodes, nodes, sync, ir.ExecModeled)
		times := res.IterTimes[f.Loop]
		return (times[7] - times[1]) / 6
	}
	p2p := run(cr.PointToPoint)
	bar := run(cr.BarrierSync)
	if p2p > bar {
		t.Errorf("p2p per-iteration %v should not exceed barrier %v", p2p, bar)
	}
}

func TestCRDataMovementScopedToHalo(t *testing.T) {
	// The bytes moved per iteration under CR must be the halo volume, far
	// below the full region size.
	nodes := 8
	f := progtest.NewFigure2(int64(nodes)*100, int64(nodes), 4)
	plans, err := CompileAll(f.Prog, cr.Options{NumShards: nodes})
	if err != nil {
		t.Fatal(err)
	}
	sim := realm.MustNewSim(testConfig(nodes))
	eng := New(sim, f.Prog, ir.ExecModeled, plans)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	// Shift-by-3 halos: 3 elements per cross-block pair, 8 bytes each.
	// Init/final copies also cross nodes; the loop's copy traffic per
	// iteration is bounded by pairs * 3 elements * 8 bytes.
	if st.BytesSent == 0 {
		t.Fatal("expected cross-node traffic")
	}
	var plan *cr.Compiled
	for _, p := range plans {
		plan = p
	}
	var copyVolume int64
	for _, op := range plan.Body {
		if op.Copy != nil {
			for _, pr := range op.Copy.Pairs {
				copyVolume += pr.Overlap.Volume()
			}
		}
	}
	// QB[j] = PB[j] shifted by 3: overlaps own block (97 elements) and next
	// block (3 elements); only the cross-shard portion travels.
	if copyVolume == 0 {
		t.Fatal("no copy volume computed")
	}
}

// TestRandomizedEquivalence cross-checks sequential, implicit, and
// control-replicated executions on randomized programs: random partitions
// (blocks and images), random launch sequences with read/write/reduce
// privileges, random loop lengths. All three must agree bitwise.
func TestRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		prog, _, _ := progtest.RandomProgram(seed)
		seq := ir.ExecSequential(prog)

		simImp := realm.MustNewSim(testConfig(3))
		resImp, err := rt.New(simImp, prog, ir.ExecReal).Run()
		if err != nil {
			t.Fatalf("seed %d: implicit: %v", seed, err)
		}
		if err := progtest.Diff(seq, &ir.SeqResult{Stores: resImp.Stores, Env: resImp.Env}); err != nil {
			t.Fatalf("seed %d: implicit: %v", seed, err)
		}

		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			plans, err := CompileAll(prog, cr.Options{NumShards: 3, Sync: sync})
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			sim := realm.MustNewSim(testConfig(3))
			res, err := New(sim, prog, ir.ExecReal, plans).Run()
			if err != nil {
				t.Fatalf("seed %d: spmd: %v", seed, err)
			}
			if err := progtest.Diff(seq, &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
				t.Fatalf("seed %d (%v): spmd: %v", seed, sync, err)
			}
		}
	}
}
