package verify

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/region"
)

// aggFixtures compiles the example programs with aggregation on, at shard
// counts where the exchange phases have multi-member remote groups
// (figure2 at 8 pieces / 4 shards is overdecomposed two-to-one;
// regionreduce at 4 pieces / 3 shards has cross-shard fold chains).
func aggFixtures(t *testing.T, sync cr.SyncMode) map[string]*cr.Compiled {
	t.Helper()
	f2 := progtest.NewFigure2(48, 8, 3)
	rr := progtest.NewRegionReduce(24, 4, 3)
	ss := progtest.NewScalarSum(32, 4)
	return map[string]*cr.Compiled{
		"figure2":      aggCompile(t, f2.Prog, f2.Loop, 4, sync),
		"regionreduce": aggCompile(t, rr.Prog, rr.Loop, 3, sync),
		"scalarsum":    aggCompile(t, ss.Prog, findLoops(ss.Prog)[0], 2, sync),
	}
}

func aggCompile(t *testing.T, prog *ir.Program, loop *ir.Loop, shards int, sync cr.SyncMode) *cr.Compiled {
	t.Helper()
	c, err := cr.Compile(prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestCheckAggAccepts: every correct compilation is certified — the table
// recomputation matches and the aggregated happens-before graph passes
// both the race and the liveness pass, under both lowerings. Zero false
// positives on correct aggregation plans.
func TestCheckAggAccepts(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for name, c := range aggFixtures(t, sync) {
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

// TestCheckAggTablesDetectsCorruption: every structural corruption of the
// compiled aggregation tables — membership, order, destination binding,
// phase boundaries — diverges from the independent recomputation.
func TestCheckAggTablesDetectsCorruption(t *testing.T) {
	// firstMulti locates a group with at least two members.
	firstMulti := func(c *cr.Compiled) *cr.AggGroup {
		for pi := range c.Spec.Phases {
			for s := range c.Spec.Phases[pi].ByShard {
				for gi := range c.Spec.Phases[pi].ByShard[s] {
					if g := &c.Spec.Phases[pi].ByShard[s][gi]; len(g.Members) > 1 {
						return g
					}
				}
			}
		}
		return nil
	}
	firstGroup := func(c *cr.Compiled) *cr.AggGroup {
		for pi := range c.Spec.Phases {
			for s := range c.Spec.Phases[pi].ByShard {
				if len(c.Spec.Phases[pi].ByShard[s]) > 0 {
					return &c.Spec.Phases[pi].ByShard[s][0]
				}
			}
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
				for pi := range c.Spec.Phases {
					ph := &c.Spec.Phases[pi]
					if ph.End < len(c.Body) {
						ph.End++
						return true
					}
					if ph.Start > 0 {
						ph.Start--
						return true
					}
				}
				return false
			},
			want: "phase boundary",
		},
		{
			name: "reassign-phaseof",
			corrupt: func(c *cr.Compiled) bool {
				for i, pi := range c.Spec.PhaseOf {
					if pi >= 0 {
						c.Spec.PhaseOf[i] = -1
						return true
					}
				}
				return false
			},
			want: "phase assignment",
		},
	}
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", tc.name, sync), func(t *testing.T) {
				applied := false
				for name, c := range aggFixtures(t, sync) {
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
	for pi := range c.Spec.Phases {
		for s := range c.Spec.Phases[pi].ByShard {
			for gi := range c.Spec.Phases[pi].ByShard[s] {
				g := &c.Spec.Phases[pi].ByShard[s][gi]
				if !dropped && len(g.Members) > 1 {
					g.Members = g.Members[1:]
					dropped = true
				}
			}
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

// mergeChainSplit corrupts an aggregated plan's group tables: it folds a
// group the fold-chain split started (its head's chain predecessor belongs
// to another shard) into the group producing that predecessor, and reports
// whether the plan had such a group.
func mergeChainSplit(c *cr.Compiled) bool {
	for pi := range c.Spec.Phases {
		ph := &c.Spec.Phases[pi]
		for s := range ph.ByShard {
			for gi := range ph.ByShard[s] {
				g := &ph.ByShard[s][gi]
				mem := g.Members[0]
				cp := c.Body[mem.Op].Copy
				if cp.Reduce == region.ReduceNone ||
					!cr.AggChainExternal(cp, c.Spec.Ops[mem.Op].Copy, int(mem.Pair)) {
					continue
				}
				pred := cr.AggPair{Op: mem.Op, Pair: mem.Pair - 1}
				for s2 := range ph.ByShard {
					for g2 := range ph.ByShard[s2] {
						for _, m2 := range ph.ByShard[s2][g2].Members {
							if m2 != pred {
								continue
							}
							ph.ByShard[s2][g2].Members = append(ph.ByShard[s2][g2].Members, g.Members...)
							ph.ByShard[s] = append(ph.ByShard[s][:gi], ph.ByShard[s][gi+1:]...)
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

// aggAnalyses analyzes every aggregation fixture twice: as compiled, and
// with the prune PlanPrune licenses for the aggregated schedule attached —
// the composed prune∘agg plan.
func aggAnalyses(t *testing.T, sync cr.SyncMode, fn func(name string, a *Analysis, info *cr.PruneInfo)) {
	t.Helper()
	for name, c := range aggFixtures(t, sync) {
		for _, prune := range []bool{false, true} {
			name := name
			if prune {
				info, rep, err := PlanPrune(c)
				if err != nil || !rep.OK() {
					t.Fatalf("%s %v: prune of the aggregated plan failed: %v %v", name, sync, err, rep)
				}
				c.Prune, name = info, name+"/pruned"
			}
			a, err := Analyze(c)
			if err != nil {
				t.Fatalf("%s %v: %v", name, sync, err)
			}
			fn(name, a, c.Prune)
		}
	}
}

// TestAggMutationSoundness: the aggregated checker's own soundness check —
// the unmutated aggregated schedule verifies clean, every essential
// merged-precondition deletion is detected, and every finding points at a
// member of the mutated group — on the aggregated plans and on the composed
// prune∘agg ones, where a deletion the prune already made is skipped.
func TestAggMutationSoundness(t *testing.T) {
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		aggAnalyses(t, sync, func(name string, a *Analysis, info *cr.PruneInfo) {
			t.Run(fmt.Sprintf("%s/%v", name, sync), func(t *testing.T) {
				if rep := a.Check(); !rep.OK() {
					for _, f := range rep.Findings {
						t.Errorf("false positive: %s", f)
					}
					t.Fatalf("unmutated aggregated schedule failed verification (%d findings)", len(rep.Findings))
				}
				if rep := a.CheckLiveness(); !rep.OK() {
					for _, f := range rep.Findings {
						t.Errorf("liveness false positive: %s", f)
					}
				}
				muts := a.AggMutations()
				detected, essential := 0, 0
				for _, m := range muts {
					if dropPruned(info, m.Drop) {
						continue
					}
					rep := a.Check(m.Drop...)
					if !rep.OK() {
						detected++
					}
					if m.Essential {
						essential++
						if rep.OK() {
							t.Errorf("missed essential mutation %s", m.Name)
						}
					}
					for _, f := range rep.Findings {
						if !m.Covers(f) {
							t.Errorf("mutation %s produced a finding not involving the mutated group: %s", m.Name, f)
						}
					}
				}
				if !strings.HasPrefix(name, "scalarsum") && essential == 0 {
					t.Errorf("no essential aggregation mutations enumerated; the harness is vacuous")
				}
				t.Logf("%d mutations, %d essential, %d detected", len(muts), essential, detected)
			})
		})
	}
}

// TestAggLivenessMutations: the shared liveness mutation harness (sync
// inversions, chain inversions, barrier swaps, skipped arrivals) applies
// unchanged to the AGGREGATED graph — its node locator finds the member
// copy nodes and per-pair sync events inside the merged clusters — and
// every mutation is detected, with the prune attached or not.
func TestAggLivenessMutations(t *testing.T) {
	total := 0
	for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
		aggAnalyses(t, sync, func(name string, a *Analysis, _ *cr.PruneInfo) {
			for _, m := range a.LivenessMutations() {
				total++
				rep := a.CheckLivenessMutated(m)
				if rep.OK() {
					t.Errorf("%s %v: missed liveness mutation %s on the aggregated graph", name, sync, m.Name)
					continue
				}
				for _, f := range rep.Findings {
					if !m.Covers(f) {
						t.Errorf("%s %v: mutation %s produced unrelated finding: %s", name, sync, m.Name, f)
					}
				}
			}
		})
	}
	if total == 0 {
		t.Fatal("no liveness mutations enumerated on aggregated graphs; the harness is vacuous")
	}
}

// TestAggMutationsCoverEverySyncEdge: under p2p every labeled sync edge of
// the aggregated graph — member wars, fanned-out dones, external chains —
// appears in some AggMutation's deletion set. No merged precondition
// escapes the harness.
func TestAggMutationsCoverEverySyncEdge(t *testing.T) {
	rr := progtest.NewRegionReduce(24, 4, 3)
	c := aggCompile(t, rr.Prog, rr.Loop, 4, cr.PointToPoint)
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[EdgeID]bool{}
	for _, m := range a.AggMutations() {
		for _, id := range m.Drop {
			covered[id] = true
		}
	}
	for _, e := range a.g.edges {
		if e.label.Class == edgeStruct {
			continue
		}
		if !covered[e.label] {
			t.Errorf("sync edge %v of the aggregated graph not covered by any mutation", e.label)
		}
	}
}
