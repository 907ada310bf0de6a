package cr_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/region"
	"repro/internal/verify"
)

// pairKey names one copy pair by body index and pair index.
type pairKey struct{ op, pair int32 }

// wireCounts is what a recordingSink saw: labelled links and preconditions
// by pair, releases by pair, and arrivals by (body index, phase).
type wireCounts struct {
	war, done, chain, release map[pairKey]int
	warAsks                   map[pairKey]int
	arrivals                  map[pairKey]int
	events                    int
}

// recordingSink is a cr.Sink over plain event numbers that counts the
// synchronization the wiring adds.
type recordingSink struct {
	c      *wireCounts
	copyOp map[int]int32 // CopyOp.ID -> body index
}

func (k recordingSink) event() int { k.c.events++; return k.c.events }

func (k recordingSink) Merge(...int) int { return k.event() }
func (k recordingSink) War(op, pair int32) int {
	k.c.warAsks[pairKey{op, pair}]++
	return k.event()
}
func (k recordingSink) Done(int32, int32) int { return k.event() }
func (k recordingSink) Begin(int)             {}
func (k recordingSink) Arrive(op, phase int32, _ []int) int {
	k.c.arrivals[pairKey{op, phase}]++
	return k.event()
}

func (k recordingSink) Link(_, _ int, id cr.EdgeID) {
	switch key := (pairKey{k.copyOp[id.Copy], int32(id.Pair)}); id.Class {
	case cr.EdgeWAR:
		k.c.war[key]++
	case cr.EdgeDone:
		k.c.done[key]++
	}
}

func (k recordingSink) Transfer(_ int, _ []int, ids []cr.EdgeID) int {
	for _, id := range ids {
		if id.Class == cr.EdgeChain {
			k.c.chain[pairKey{k.copyOp[id.Copy], int32(id.Pair)}]++
		}
	}
	return k.event()
}

// TestWiringHonoursPruneMasks drives one iteration of every application's
// exchange step lists, on every shard, through cr.Wiring with a recording
// sink — both lowerings, aggregation off and on, under no prune, the
// certifier's license and a seeded random mask — and checks each pair's
// synchronization against the masks: one war link, and the transfer's
// wait on it, iff the war is kept (point-to-point only); one done trigger
// iff the done is kept (under barriers, reduction pairs only); one chain
// link iff the member chains and the link is kept; one release per
// consumed pair; one arrival per shard at each covered copy's two
// barriers; and the events the shards' iterations wait on.
func TestWiringHonoursPruneMasks(t *testing.T) {
	const shards = 4
	for _, app := range harness.Apps() {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, agg := range []bool{false, true} {
				prog, loop := app.BuildProgram(shards)
				c, err := cr.Compile(prog, loop, cr.Options{NumShards: shards, Sync: sync, Agg: agg})
				if err != nil {
					t.Fatal(err)
				}
				licensed, _, err := verify.PlanPrune(c)
				if err != nil {
					t.Fatal(err)
				}
				random := &cr.PruneInfo{}
				rng := rand.New(rand.NewSource(int64(len(app.Name))))
				for _, op := range c.Body {
					if cp := op.Copy; cp != nil {
						for k := range cp.Pairs {
							random.SetWar(cp.ID, k, len(cp.Pairs), rng.Intn(2) == 0)
							random.SetDone(cp.ID, k, len(cp.Pairs), rng.Intn(2) == 0)
							random.SetChain(cp.ID, k, len(cp.Pairs), rng.Intn(2) == 0)
						}
					}
				}
				for _, pr := range []struct {
					name  string
					prune *cr.PruneInfo
				}{{"none", nil}, {"licensed", licensed}, {"random", random}} {
					t.Run(fmt.Sprintf("%s/%v/agg=%v/%s", app.Name, sync, agg, pr.name), func(t *testing.T) {
						checkWiring(t, c, pr.prune)
					})
				}
			}
		}
	}
}

func checkWiring(t *testing.T, c *cr.Compiled, prune *cr.PruneInfo) {
	counts := &wireCounts{war: map[pairKey]int{}, done: map[pairKey]int{}, chain: map[pairKey]int{}, release: map[pairKey]int{}, warAsks: map[pairKey]int{}, arrivals: map[pairKey]int{}}
	sink := recordingSink{counts, map[int]int32{}}
	for i, op := range c.Body {
		if op.Copy != nil {
			sink.copyOp[op.Copy.ID] = int32(i)
		}
	}
	chained := map[pairKey]bool{}
	release := func(op, pair int32, _ int) { counts.release[pairKey{op, pair}]++ }
	var sc cr.Scratch[int]
	ops, wantOps := 0, 0
	for i, op := range c.Body {
		if op.Copy == nil {
			continue
		}
		for s := 0; s < c.Opts.NumShards; s++ {
			list, end := c.ExchangeSteps(i, s)
			if end == i {
				continue
			}
			steps := make([]cr.Step[int], len(list))
			for j := range list {
				steps[j].ExchangeStep = &list[j]
				if !list[j].Produce {
					steps[j].Dst = &cr.InstState[int]{}
				}
				for _, m := range list[j].Members {
					steps[j].Srcs = append(steps[j].Srcs, &cr.InstState[int]{})
					chained[pairKey{m.Op, m.Pair}] = m.Chain
				}
			}
			var shardOps []int
			w := &cr.Wiring[int, recordingSink]{Sink: sink, C: c, Prune: prune, Release: release, Scratch: &sc}
			w.Exchange(steps, int32(i), int32(end), &shardOps)
			ops += len(shardOps)
			if c.Opts.Sync == cr.BarrierSync {
				wantOps += end - i // each covered copy's exit barrier
			}
		}
	}
	p2p := c.Opts.Sync != cr.BarrierSync
	one := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for i, op := range c.Body {
		cp := op.Copy
		if cp == nil {
			continue
		}
		for k := range cp.Pairs {
			key := pairKey{int32(i), int32(k)}
			war := one(p2p && !prune.SkipWar(cp.ID, k))
			if got := counts.war[key]; got != war {
				t.Errorf("copy %d pair %d: %d war links, want %d", cp.ID, k, got, war)
			}
			if got := counts.warAsks[key]; got != 2*war {
				t.Errorf("copy %d pair %d: war event asked for %d times, want %d (release and transfer)", cp.ID, k, got, 2*war)
			}
			keep := !prune.SkipDone(cp.ID, k) && (p2p || cp.Reduce != region.ReduceNone)
			if got, want := counts.done[key], one(keep); got != want {
				t.Errorf("copy %d pair %d: %d done triggers, want %d", cp.ID, k, got, want)
			}
			if got, want := counts.chain[key], one(chained[key] && !prune.SkipChain(cp.ID, k)); got != want {
				t.Errorf("copy %d pair %d: %d chain links, want %d", cp.ID, k, got, want)
			}
			if got, want := counts.release[key], one(p2p); got != want {
				t.Errorf("copy %d pair %d: %d releases, want %d", cp.ID, k, got, want)
			}
			if p2p { // the consumer's done, if kept, and the producer's done or transfer
				wantOps += one(!prune.SkipDone(cp.ID, k)) + 1
			}
		}
		for phase := int32(0); phase < 2; phase++ {
			want := 0
			if !p2p {
				want = c.Opts.NumShards
			}
			if got := counts.arrivals[pairKey{int32(i), phase}]; got != want {
				t.Errorf("copy %d barrier %d: %d arrivals, want %d", cp.ID, phase, got, want)
			}
		}
	}
	if ops != wantOps {
		t.Errorf("the shards' iterations wait on %d events, want %d", ops, wantOps)
	}
}
