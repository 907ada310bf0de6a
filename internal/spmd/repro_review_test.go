package spmd_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// Review repro: scan crash times; whenever recovery claims success,
// stores must match the fault-free run.
func TestReviewScanCrashTimes(t *testing.T) {
	build := figure2(48, 8, 8)
	cfg := recovered(3)
	cfg.Recov.CheckpointEvery = 100 // single epoch: no checkpoint ever taken
	res0 := must(t)(bench.RunCR(build(), cfg))
	bad := 0
	for frac := 50; frac <= 99; frac++ {
		at := res0.Elapsed * realm.Time(frac) / 100
		res, err := bench.RunCR(build(), crashes(cfg, realm.NodeCrash{Node: 2, At: at}))
		if err != nil || (res.Faults != nil && res.Faults.Unrecovered) {
			continue // degraded or failed runs are allowed to be partial
		}
		if err := progtest.Diff(res0.SeqResult, res.SeqResult); err != nil {
			bad++
			t.Logf("crash at %d%% (t=%d): recovery reported success but stores are WRONG (restarts=%d): %v", frac, at, res.Faults.Restarts, err)
		}
	}
	if bad > 0 {
		t.Fatalf("%d crash times produced silently wrong results", bad)
	}
}
