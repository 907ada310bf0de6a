package cr_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/region"
)

// TestExchangeSteps checks the exchange step lists of the four evaluation
// applications, at one and two pieces per shard, aggregation off and on:
// across the shards' lists every pair of every copy op is produced exactly
// once and consumed exactly once, the members of every produce step are in
// the unaggregated issue order, a member chains exactly where the fold order
// needs the predecessor's done event, and with aggregation off each copy
// op's list covers that op alone and is a direct walk of its pair list.
func TestExchangeSteps(t *testing.T) {
	const shards = 4
	type pairKey struct{ op, pair int32 }
	for _, app := range harness.Apps() {
		for _, over := range []int{1, 2} {
			for _, agg := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/x%d/agg=%v", app.Name, over, agg), func(t *testing.T) {
					prog, loop := app.BuildProgram(over * shards)
					c, err := cr.Compile(prog, loop, cr.Options{NumShards: shards, Agg: agg})
					if err != nil {
						t.Fatal(err)
					}
					produced, consumed := map[pairKey]int{}, map[pairKey]int{}
					merged := 0
					covered := 0 // body ops below it are covered by some list
					for i, op := range c.Body {
						if op.Copy == nil {
							continue
						}
						// Without aggregation a copy op's list covers the op alone. With
						// it every shard must agree on the span; CheckAggTables pins
						// the phase boundaries themselves.
						wantEnd := i + 1
						if agg {
							_, wantEnd = c.ExchangeSteps(i, 0)
						}
						for s := 0; s < shards; s++ {
							steps, end := c.ExchangeSteps(i, s)
							if end != wantEnd {
								t.Fatalf("op %d shard %d: list covers [%d,%d), want end %d", i, s, i, end, wantEnd)
							}
							if end == i && len(steps) > 0 {
								t.Fatalf("op %d shard %d: %d steps cover nothing", i, s, len(steps))
							}
							// issue numbers the shard's produced pairs over the covered
							// ops in the order the unaggregated executor issues them.
							issue := map[pairKey]int{}
							var direct []cr.ExchangeStep
							for j := i; j < end; j++ {
								cp := c.Body[j].Copy
								for k := 0; k < len(cp.Pairs); {
									g := k
									for g < len(cp.Pairs) && cp.Pairs[g].Dst == cp.Pairs[k].Dst {
										g++
									}
									if c.ShardOf[cp.Pairs[k].Dst] == s {
										direct = append(direct, cr.ExchangeStep{Op: int32(j), GroupStart: int32(k), GroupEnd: int32(g)})
									}
									for q := k; q < g; q++ {
										if c.ShardOf[cp.Pairs[q].Src] != s {
											continue
										}
										issue[pairKey{int32(j), int32(q)}] = len(issue)
										direct = append(direct, cr.ExchangeStep{Produce: true, DstShard: int32(c.ShardOf[cp.Pairs[q].Dst]), Members: []cr.StepMember{{
											AggPair: cr.AggPair{Op: int32(j), Pair: int32(q)}, Chain: cp.Reduce != region.ReduceNone && q > k,
										}}})
									}
									k = g
								}
							}
							if !agg && !reflect.DeepEqual(steps, direct) && len(steps)+len(direct) > 0 {
								t.Errorf("op %d shard %d: list\n %+v\nis not the direct pair-list walk\n %+v", i, s, steps, direct)
							}
							for _, st := range steps {
								if !st.Produce {
									for k := st.GroupStart; k < st.GroupEnd; k++ {
										consumed[pairKey{st.Op, k}]++
									}
									continue
								}
								if len(st.Members) > 1 {
									merged++
								}
								last := -1
								for _, m := range st.Members {
									key := pairKey{m.Op, m.Pair}
									produced[key]++
									at, ok := issue[key]
									if !ok || at <= last {
										t.Errorf("op %d shard %d: member %+v out of the unaggregated issue order", i, s, m)
									}
									last = at
									cp := c.Body[m.Op].Copy
									if got := int32(c.ShardOf[cp.Pairs[m.Pair].Dst]); got != st.DstShard {
										t.Errorf("op %d shard %d: member %+v goes to shard %d in a step toward %d", i, s, m, got, st.DstShard)
									}
									chain := cp.Reduce != region.ReduceNone && m.Pair > 0 && cp.Pairs[m.Pair-1].Dst == cp.Pairs[m.Pair].Dst
									if agg {
										chain = chain && c.ShardOf[cp.Pairs[m.Pair-1].Src] != c.ShardOf[cp.Pairs[m.Pair].Src]
									}
									if m.Chain != chain {
										t.Errorf("op %d shard %d: member %+v chain=%v, want %v", i, s, m, m.Chain, chain)
									}
								}
							}
						}
						if wantEnd > covered {
							covered = wantEnd
						}
						if i >= covered {
							t.Errorf("copy op %d is covered by no list", i)
						}
					}
					pairs := 0
					for i, op := range c.Body {
						if op.Copy == nil {
							continue
						}
						for k := range op.Copy.Pairs {
							pairs++
							key := pairKey{int32(i), int32(k)}
							if produced[key] != 1 || consumed[key] != 1 {
								t.Errorf("op %d pair %d: produced %d times, consumed %d times", i, k, produced[key], consumed[key])
							}
						}
					}
					if pairs == 0 {
						t.Fatal("no copy pairs: the test is vacuous")
					}
					if agg && over == 2 && merged == 0 {
						t.Error("no multi-member produce step at 2x overdecomposition")
					}
					if !agg && merged != 0 {
						t.Errorf("%d multi-member produce steps without aggregation", merged)
					}
				})
			}
		}
	}
}
