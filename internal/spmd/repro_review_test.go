package spmd_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/progtest"
	"repro/internal/realm"
)

// Review repro: scan crash points over the second half of node 2's launches
// and over every copy it sends or receives; whenever recovery claims
// success, stores must match the fault-free run.
func TestReviewScanCrashPoints(t *testing.T) {
	build := figure2(48, 8, 8)
	cfg := recovered(3)
	cfg.Recov.CheckpointEvery = 100 // single epoch: no checkpoint ever taken
	res0, log0 := logged(t, build, cfg)
	bad := 0
	check := func(what string, res *bench.Result, err error) {
		if err != nil || (res.Faults != nil && res.Faults.Unrecovered) {
			return // degraded or failed runs are allowed to be partial
		}
		if err := progtest.Diff(res0.SeqResult, res.SeqResult); err != nil {
			bad++
			t.Logf("crash at %s: recovery reported success but stores are WRONG (restarts=%d): %v", what, res.Faults.Restarts, err)
		}
	}
	for k := log0.launches[2] / 2; k <= log0.launches[2]; k++ {
		res, err := bench.RunCR(build(), crashes(cfg, []realm.LaunchCrash{{Node: 2, AtLaunch: k}}))
		check(fmt.Sprintf("launch %d", k), res, err)
	}
	for k := uint64(1); k <= log0.touches[2]; k++ {
		res, err := bench.RunCR(build(), crashes(cfg, nil, realm.CopyCrash{Node: 2, AtCopy: k}))
		check(fmt.Sprintf("copy %d", k), res, err)
	}
	if bad > 0 {
		t.Fatalf("%d crash points produced silently wrong results", bad)
	}
}
