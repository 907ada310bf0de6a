// Dynamic validation of certified sync pruning: for every evaluation app,
// both lowerings, and both execution backends, a run with the certified
// prune attached must produce bitwise-identical final stores to the
// unpruned run — pruning may only remove redundant sync and dead
// initialization copies, never change a value. On top of equivalence,
// pruning must strictly reduce the DES message count where dead
// cross-node init copies exist (PENNANT under p2p).
package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/pennant"
	"repro/internal/bench"
	"repro/internal/cr"
)

// TestPruneEquivalence: certified pruning is invisible to the computed
// values — bitwise — for every app, both lowerings, both backends, with
// shard plans memoized and re-resolved every iteration.
func TestPruneEquivalence(t *testing.T) {
	const nodes = 2
	backends := []string{bench.BackendDES, bench.BackendNative}
	if testing.Short() {
		backends = backends[:1]
	}
	for _, app := range pruneApps {
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			for _, backend := range backends {
				for _, pm := range planModes {
					t.Run(fmt.Sprintf("%s/%v/%s/%s", app.name, sync, backend, pm.name), func(t *testing.T) {
						cfg := bench.Config{MeasureOpts: bench.MeasureOpts{Backend: backend, NoTrace: pm.noTrace}, Nodes: nodes, Sync: sync}
						base := must(t)(bench.RunCR(app.build(nodes), cfg))
						cfg.Prune = true
						diff(t, base.SeqResult, must(t)(bench.RunCR(app.build(nodes), cfg)))
					})
				}
			}
		}
	}
}

// TestPruneReducesMessages: the dead-initialization prune class eliminates
// real cross-node copies, so the DES message count must strictly drop on
// PENNANT under p2p — the acceptance bar for -prune reducing measured
// communication, not just graph edges.
func TestPruneReducesMessages(t *testing.T) {
	const nodes = 4
	cfg := bench.Config{Nodes: nodes}
	base := must(t)(bench.RunCR(pennant.Build(pennant.Small(nodes)).Prog, cfg)).Stats
	cfg.Prune = true
	pruned := must(t)(bench.RunCR(pennant.Build(pennant.Small(nodes)).Prog, cfg)).Stats
	if pruned.Messages >= base.Messages {
		t.Errorf("pruning did not reduce messages: %d -> %d", base.Messages, pruned.Messages)
	}
	if pruned.BytesSent > base.BytesSent {
		t.Errorf("pruning grew bytes sent: %d -> %d", base.BytesSent, pruned.BytesSent)
	}
}
