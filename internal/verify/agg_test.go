package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
)

func aggCompile(t *testing.T, prog *ir.Program, loop *ir.Loop, shards int, sync cr.SyncMode) *cr.Compiled {
	t.Helper()
	return compileOpts(t, prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: true})
}

// TestCheckAggAccepts: every correct compilation is certified — the table
// recomputation matches and the aggregated happens-before graph passes
// both the race and the liveness pass, under both lowerings. Zero false
// positives on correct aggregation plans.
func TestCheckAggAccepts(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range fixtures(t, sync, true) {
			t.Run(fmt.Sprintf("%s/%v", name, sync), func(t *testing.T) {
				rep, err := CheckAgg(c)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Pass != "agg" {
					t.Errorf("report pass %q, want agg", rep.Pass)
				}
				if !rep.OK() {
					for _, f := range rep.Findings {
						t.Errorf("false positive: %s", f)
					}
				}
				if rep.Stats.Nodes == 0 || rep.Stats.Conflicts == 0 {
					t.Errorf("vacuous certification: %+v", rep.Stats)
				}
				if name == "scalarsum" {
					// Scalar reductions lower without region copies:
					// nothing to coalesce, and CheckAgg must certify the
					// empty aggregation rather than reject it.
					if rep.Counters["phases"] != 0 {
						t.Errorf("scalarsum grew exchange phases: %v", rep.Counters)
					}
					return
				}
				if rep.Counters["phases"] == 0 || rep.Counters["agg_groups"] == 0 {
					t.Errorf("empty aggregation counters: %v", rep.Counters)
				}
				if rep.Counters["multi_member_groups"] == 0 {
					t.Errorf("%s has no multi-member groups; the fixture does not exercise coalescing", name)
				}
			})
		}
	}
}

// produceSteps returns every produce step of c's exchanges, in body op,
// shard and list order.
func produceSteps(c *cr.Compiled) []*cr.ExchangeStep {
	var out []*cr.ExchangeStep
	for i := range c.Exchanges {
		for _, steps := range c.Exchanges[i].Steps {
			for si := range steps {
				if steps[si].Produce {
					out = append(out, &steps[si])
				}
			}
		}
	}
	return out
}

// multiOpPhase returns the body index of the head of c's first exchange
// spanning two or more copy ops, or -1.
func multiOpPhase(c *cr.Compiled) int {
	for i, x := range c.Exchanges {
		if x.End > i+1 {
			return i
		}
	}
	return -1
}

// TestCheckAggTablesDetectsCorruption: every structural corruption of the
// compiled exchanges — membership, order, destination binding, phase
// boundaries and heads — diverges from the independent recomputation. The
// example fixtures have single-op phases only; a random program adds one
// with the phase [2,4).
func TestCheckAggTablesDetectsCorruption(t *testing.T) {
	// firstMulti locates a group with at least two members.
	firstMulti := func(c *cr.Compiled) *cr.ExchangeStep {
		for _, st := range produceSteps(c) {
			if len(st.Members) > 1 {
				return st
			}
		}
		return nil
	}
	firstGroup := func(c *cr.Compiled) *cr.ExchangeStep {
		if steps := produceSteps(c); len(steps) > 0 {
			return steps[0]
		}
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(c *cr.Compiled) bool // false = fixture lacks the shape
		want    string
	}{
		{
			name: "swap-members",
			corrupt: func(c *cr.Compiled) bool {
				g := firstMulti(c)
				if g == nil {
					return false
				}
				g.Members[0], g.Members[1] = g.Members[1], g.Members[0]
				return true
			},
			want: "group membership",
		},
		{
			name: "drop-member",
			corrupt: func(c *cr.Compiled) bool {
				g := firstMulti(c)
				if g == nil {
					return false
				}
				g.Members = g.Members[:len(g.Members)-1]
				return true
			},
			want: "group membership",
		},
		{
			name: "duplicate-member",
			corrupt: func(c *cr.Compiled) bool {
				g := firstGroup(c)
				if g == nil {
					return false
				}
				g.Members = append(g.Members, g.Members[0])
				return true
			},
			want: "group membership",
		},
		{
			name: "rebind-dst-shard",
			corrupt: func(c *cr.Compiled) bool {
				g := firstGroup(c)
				if g == nil {
					return false
				}
				g.DstShard = (g.DstShard + 1) % int32(c.Opts.NumShards)
				return true
			},
			want: "group membership",
		},
		{
			name: "shift-phase-boundary",
			corrupt: func(c *cr.Compiled) bool {
				for i := range c.Exchanges {
					if x := &c.Exchanges[i]; x.End > i && x.End < len(c.Body) {
						x.End++
						return true
					}
				}
				return false
			},
			want: "phase boundary",
		},
		{
			name: "shift-phase-boundary-inward",
			corrupt: func(c *cr.Compiled) bool {
				i := multiOpPhase(c)
				if i < 0 {
					return false
				}
				c.Exchanges[i].End--
				return true
			},
			want: "phase boundary",
		},
		{
			name: "split-phase",
			corrupt: func(c *cr.Compiled) bool {
				i := multiOpPhase(c)
				if i < 0 {
					return false
				}
				x := &c.Exchanges[i]
				c.Exchanges[i+1] = cr.Exchange{End: x.End, Steps: x.Steps}
				x.End = i + 1
				return true
			},
			want: "phase boundary",
		},
		{
			// Dropping a phase head moves its ops out of their phase.
			name: "reassign-phaseof",
			corrupt: func(c *cr.Compiled) bool {
				for i := range c.Exchanges {
					if c.Exchanges[i].End > i {
						c.Exchanges[i] = cr.Exchange{End: i}
						return true
					}
				}
				return false
			},
			want: "phase assignment",
		},
	}
	rp, _, _ := progtest.RandomProgram(7)
	multi := rp.Stmts[3].(*ir.Loop)
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", tc.name, sync), func(t *testing.T) {
				plans := fixtures(t, sync, true)
				plans["random7"] = aggCompile(t, rp, multi, 3, sync)
				applied := false
				for name, c := range plans {
					if !tc.corrupt(c) {
						continue
					}
					applied = true
					err := CheckAggTables(c)
					if err == nil {
						t.Errorf("%s: corruption %s not detected", name, tc.name)
						continue
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Errorf("%s: corruption %s detected with the wrong vocabulary:\n%v\nwant substring %q", name, tc.name, err, tc.want)
					}
				}
				if !applied {
					t.Fatalf("no fixture has the shape for corruption %s; the case is vacuous", tc.name)
				}
			})
		}
	}
}

// TestCheckAggDetectsDroppedMember: beyond the table diff, the DYNAMIC
// layer catches a member dropped from its group — the executor allocates
// the member's done event from the pair lists (consumers are oblivious to
// producer batching), so a message that forgets the member leaves the
// event never triggered and its waiters blocked. The replay shows exactly
// that.
func TestCheckAggDetectsDroppedMember(t *testing.T) {
	f := progtest.NewFigure2(48, 8, 3)
	c := aggCompile(t, f.Prog, f.Loop, 4, cr.PointToPoint)
	dropped := false
	for _, g := range produceSteps(c) {
		if len(g.Members) > 1 {
			g.Members = g.Members[1:]
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("no multi-member group to corrupt")
	}
	rep, err := CheckAgg(c)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, f := range rep.Findings {
		kinds[f.Kind]++
	}
	if kinds["agg-table"] == 0 {
		t.Errorf("structural layer missed the dropped member: %v", kinds)
	}
	if kinds["never-triggered"] == 0 {
		t.Errorf("dynamic layer missed the dropped member (want a never-triggered done event): %v", kinds)
	}
}

// mergeChainSplit corrupts an aggregated plan's exchanges: it folds a
// group the fold-chain split started (its head's chain predecessor belongs
// to another shard) into the group producing that predecessor, and reports
// whether the plan had such a group.
func mergeChainSplit(c *cr.Compiled) bool {
	for i := range c.Exchanges {
		lists := c.Exchanges[i].Steps
		for s := range lists {
			for gi, g := range lists[s] {
				if !g.Produce || !g.Members[0].Chain {
					continue
				}
				pred := cr.AggPair{Op: g.Members[0].Op, Pair: g.Members[0].Pair - 1}
				for s2 := range lists {
					for g2 := range lists[s2] {
						if slices.ContainsFunc(lists[s2][g2].Members, func(m cr.StepMember) bool { return m.AggPair == pred }) {
							lists[s2][g2].Members = append(lists[s2][g2].Members, g.Members...)
							lists[s] = slices.Delete(lists[s], gi, gi+1)
							return true
						}
					}
				}
			}
		}
	}
	return false
}

func hasKind(fs []Finding, kind string) bool {
	for _, f := range fs {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// TestMergedChainSplitIsCertifiedAsCycle: the fold-chain split exists to
// keep the message-level wait graph acyclic. Merging a chain-split group
// into the group that produces its chain predecessor builds a message that
// waits (through the external chain edge) on a done event its OWN
// completion triggers — the merged message waits for itself. Every entry
// point certifies the schedule the executor would run from the tables, so
// CheckAgg, plain Verify and PlanPrune must all report the deadlock with a
// concrete cycle witness, not hang, crash in the race pass, or (as Verify
// and PlanPrune did while they analysed the unaggregated schedule of an
// aggregated plan) pass it.
func TestMergedChainSplitIsCertifiedAsCycle(t *testing.T) {
	found := false
	for _, shards := range []int{2, 3, 4} {
		rr := progtest.NewRegionReduce(24, 4, 3)
		c := aggCompile(t, rr.Prog, rr.Loop, shards, cr.PointToPoint)
		if !mergeChainSplit(c) {
			continue
		}
		found = true
		rep, err := CheckAgg(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !hasKind(rep.Findings, "cycle") {
			t.Errorf("shards=%d: CheckAgg did not certify the merged groups as a wait cycle; findings: %v", shards, rep.Findings)
		}
		rep, err = Verify(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !hasKind(rep.Findings, "cycle") {
			t.Errorf("shards=%d: Verify passed a schedule that deadlocks; findings: %v", shards, rep.Findings)
		}
		info, rep, err := PlanPrune(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if info != nil || !hasKind(rep.Findings, "cycle") {
			t.Errorf("shards=%d: PlanPrune licensed a prune of a schedule that deadlocks; findings: %v", shards, rep.Findings)
		}
	}
	if !found {
		t.Fatal("no shard count yields a mergeable chain-split group; the test is vacuous")
	}
}

// TestCycleReportStatsAreComplete: a race report on a cyclic graph stops at
// the cycle, but the size of the problem it states is the analysis's all
// the same — the cross-shard count included, which is tallied when the
// conflicts are enumerated. Dropping the fold-chain edges that close the
// merged group's wait cycle must leave the report's Stats unchanged.
func TestCycleReportStatsAreComplete(t *testing.T) {
	found := false
	for _, shards := range []int{2, 3, 4} {
		rr := progtest.NewRegionReduce(24, 4, 3)
		c := aggCompile(t, rr.Prog, rr.Loop, shards, cr.PointToPoint)
		if !mergeChainSplit(c) {
			continue
		}
		found = true
		a, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		cyclic := a.Check()
		var chains []EdgeID
		for l := range a.g.labels(EdgeChain) {
			chains = append(chains, l)
		}
		acyclic := a.Check(chains...)
		if !hasKind(cyclic.Findings, "cycle") || hasKind(acyclic.Findings, "cycle") {
			t.Fatalf("shards=%d: want a cycle only with the chains in place; findings %v, then %v", shards, cyclic.Findings, acyclic.Findings)
		}
		if cyclic.Stats != acyclic.Stats || cyclic.Stats.CrossShard == 0 {
			t.Errorf("shards=%d: the cycle report states %+v, the same analysis without the cycle %+v", shards, cyclic.Stats, acyclic.Stats)
		}
		if rep, err := CheckAgg(c); err != nil || rep.Stats != acyclic.Stats {
			t.Errorf("shards=%d: CheckAgg states %+v (%v), the race check %+v", shards, rep.Stats, err, acyclic.Stats)
		}
	}
	if !found {
		t.Fatal("no shard count yields a mergeable chain-split group; the test is vacuous")
	}
}
