// Pinned mutation lists: for every cell — the four evaluation applications at
// one piece on 1 shard and at 8 pieces on 2 and 4 shards, and every loop of
// 30 random programs at 2, 3 and 4 shards,
// each under both lowerings with aggregation off and on — the sha256 of the
// ordered race mutation list (name, deletion set, essential flag) and of the
// ordered liveness mutation list (name, finding kinds). The benchmark draws
// essential mutants by index, so the order is part of what is pinned.
//
// Regenerate (only when an enumeration change is intended) with
//
//	go test ./internal/verify/ -run TestMutationListsGolden -update
package verify_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/verify"
)

const mutationListsGoldenPath = "testdata/mutation_lists_golden.json"

// mutationLists is one cell's pinned enumeration.
type mutationLists struct {
	Races    string `json:"races_sha256"`
	Liveness string `json:"liveness_sha256"`
}

func listsOf(a *verify.Analysis) mutationLists {
	races, live := sha256.New(), sha256.New()
	for _, m := range a.Mutations() {
		fmt.Fprintf(races, "%s|%v|%t\n", m.Name, m.Drop, m.Essential)
	}
	for _, m := range a.LivenessMutations() {
		fmt.Fprintf(live, "%s|%v\n", m.Name, m.Kinds)
	}
	return mutationLists{hex.EncodeToString(races.Sum(nil)), hex.EncodeToString(live.Sum(nil))}
}

func TestMutationListsGolden(t *testing.T) {
	got := map[string]mutationLists{}
	add := func(cell string, prog *ir.Program, loop *ir.Loop, o cr.Options) {
		for _, agg := range []bool{false, true} {
			for _, sync := range syncModes {
				o.Sync, o.Agg = sync, agg
				a, err := verify.Analyze(compileApp(t, prog, loop, o))
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				got[fmt.Sprintf("%s/%v/agg=%t", cell, sync, agg)] = listsOf(a)
			}
		}
	}
	// At one piece most of the apps' copies have no pairs: the aggregated
	// barrier enumeration visits such a copy, the plain one skips it.
	for _, shards := range []int{1, 2, 4} {
		pieces := 8
		if shards == 1 {
			pieces = 1
		}
		for i, app := range evalApps {
			prog, loop := witnessProgram(i, pieces)
			add(fmt.Sprintf("%s/shards=%d", app.name, shards), prog, loop, cr.Options{NumShards: shards})
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		prog, _, _ := progtest.RandomProgram(seed)
		li := 0
		for _, s := range prog.Stmts {
			loop, ok := s.(*ir.Loop)
			if !ok {
				continue
			}
			for _, shards := range []int{2, 3, 4} {
				add(fmt.Sprintf("random-%d/loop=%d/shards=%d", seed, li, shards), prog, loop, cr.Options{NumShards: shards})
			}
			li++
		}
	}

	want := readGolden(t, mutationListsGoldenPath, got)
	for cell, w := range want {
		if g, ok := got[cell]; !ok {
			t.Errorf("%s: in the golden but no longer enumerated", cell)
		} else if g != w {
			t.Errorf("%s: mutation lists %+v, golden %+v", cell, g, w)
		}
	}
}
