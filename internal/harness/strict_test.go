package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/progtest"
)

// TestReadPastBlockPanicsTheSameEverywhere: a kernel that reads one point
// past its declared subregion is refused with the same panic text by the
// sequential interpreter, the implicit runtime and the SPMD executor
// (memoized and re-resolved plan), on both backends. The first two back the
// argument with the root store, which does hold the point; the refusal
// comes from the argument's region, not from the store's bounds.
func TestReadPastBlockPanicsTheSameEverywhere(t *testing.T) {
	const nodes = 4
	build := func() *progtest.PastBlock { return progtest.NewPastBlock(32, nodes, 3) }

	f := build()
	want := fmt.Sprintf("region: point %v outside footprint %v", f.Past, f.Block.IndexSpace())
	var seq string
	func() {
		defer func() { seq = fmt.Sprint(recover()) }()
		ir.ExecSequential(f.Prog)
	}()
	if seq != want {
		t.Fatalf("sequential: panicked with %q, want %q", seq, want)
	}

	for _, backend := range []string{bench.BackendDES, bench.BackendNative} {
		cfg := onBackend(backend, nodes, 0)
		_, err := bench.RunImplicit(build().Prog, cfg)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("implicit on %q: error %v does not carry %q", backend, err, want)
		}
		for _, noTrace := range []bool{false, true} {
			cfg.NoTrace = noTrace
			_, err := bench.RunCR(build().Prog, cfg)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("spmd on %q (NoTrace=%v): error %v does not carry %q", backend, noTrace, err, want)
			}
		}
	}
}
