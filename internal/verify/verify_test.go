package verify

import (
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
)

func compile(t *testing.T, prog *ir.Program, loop *ir.Loop, shards int, sync cr.SyncMode) *cr.Compiled {
	t.Helper()
	return compileOpts(t, prog, loop, cr.Options{NumShards: shards, Sync: sync})
}

func compileOpts(t *testing.T, prog *ir.Program, loop *ir.Loop, o cr.Options) *cr.Compiled {
	t.Helper()
	c, err := cr.Compile(prog, loop, o)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func mustVerify(t *testing.T, c *cr.Compiled) *Report {
	t.Helper()
	rep, err := Verify(c)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.OK() {
		for _, f := range rep.Findings {
			t.Errorf("finding: %s", f)
		}
		t.Fatalf("verifier rejected a correct compilation (%d findings)", len(rep.Findings))
	}
	return rep
}

func TestVerifyFigure2(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for _, trip := range []int{1, 3} {
			f := progtest.NewFigure2(48, 8, trip)
			c := compile(t, f.Prog, f.Loop, 4, sync)
			rep := mustVerify(t, c)
			if rep.Stats.Conflicts == 0 {
				t.Errorf("%v trip=%d: no conflicts enumerated; the checker is vacuous", sync, trip)
			}
			if rep.Stats.CrossShard == 0 {
				t.Errorf("%v trip=%d: no cross-shard conflicts; ghost exchange should cross shards", sync, trip)
			}
			wantIters := 2
			if trip < 2 {
				wantIters = 1
			}
			if rep.Stats.Iters != wantIters {
				t.Errorf("%v trip=%d: unrolled %d iters, want %d", sync, trip, rep.Stats.Iters, wantIters)
			}
		}
	}
}

func TestVerifyRegionReduce(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		f := progtest.NewRegionReduce(24, 4, 3)
		c := compile(t, f.Prog, f.Loop, 3, sync)
		rep := mustVerify(t, c)
		if rep.Stats.Conflicts == 0 {
			t.Errorf("%v: no conflicts enumerated", sync)
		}
	}
}

func TestVerifyScalarSum(t *testing.T) {
	f := progtest.NewScalarSum(32, 4)
	loop := findLoops(f.Prog)[0]
	c := compile(t, f.Prog, loop, 2, cr.PointToPoint)
	mustVerify(t, c)
}

func TestVerifySingleShard(t *testing.T) {
	// One shard still has inter-iteration and task/copy ordering to verify;
	// nothing should be cross-shard.
	f := progtest.NewFigure2(24, 4, 2)
	c := compile(t, f.Prog, f.Loop, 1, cr.PointToPoint)
	rep := mustVerify(t, c)
	if rep.Stats.CrossShard != 0 {
		t.Errorf("single shard reported %d cross-shard conflicts", rep.Stats.CrossShard)
	}
}

func TestCheckDetectsDeletedSync(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	c := compile(t, f.Prog, f.Loop, 4, cr.PointToPoint)
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	muts := a.Mutations()
	if len(muts) == 0 {
		t.Fatal("no mutations enumerated for a program with inserted copies")
	}
	var essential *Mutation
	for i := range muts {
		if muts[i].Essential {
			essential = &muts[i]
			break
		}
	}
	if essential == nil {
		t.Fatal("no essential mutation: the ghost exchange has cross-color pairs")
	}
	rep := a.Check(essential.Drop...)
	if rep.OK() {
		t.Fatalf("deleting %s left the schedule verified", essential.Name)
	}
	for _, fd := range rep.Findings {
		if !essential.Covers(fd) {
			t.Errorf("finding does not involve mutation %s: %s", essential.Name, fd)
		}
	}
}

// TestVerifyAll: Certify passes a correct compilation end to end, and its
// races report carries the analysis's stats.
func TestVerifyAll(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	suite, err := Certify(compile(t, f.Prog, f.Loop, 4, cr.PointToPoint), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range suite.Reports {
		if !rep.OK() {
			t.Errorf("Certify's %s pass rejected: %v", rep.Pass, rep.Findings)
		}
	}
	if races := suite.Reports[0]; races.Pass != "races" || races.Stats.Conflicts == 0 {
		t.Errorf("first report %q carries no conflicts: %+v", races.Pass, races.Stats)
	}
}

func findLoops(p *ir.Program) []*ir.Loop {
	var out []*ir.Loop
	for _, s := range p.Stmts {
		if l, ok := s.(*ir.Loop); ok {
			out = append(out, l)
		}
	}
	return out
}
