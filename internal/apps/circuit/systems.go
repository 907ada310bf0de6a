package circuit

import (
	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/realm"
)

// Systems lists the Figure 9 series (the paper's circuit evaluation has no
// external reference code; it compares Regent with and without CR).
var Systems = []string{"regent-cr", "regent-nocr"}

// Program builds the program both systems run at a piece count, and the
// tuning they run it under. iters > 0 replaces the configuration's
// iteration count.
func Program(nodes, iters int, _ bool) (*ir.Program, *ir.Loop, bench.Tuning) {
	cfg := Default(nodes)
	if iters > 0 {
		cfg.Iters = iters
	}
	app := Build(cfg)
	return app.Prog, app.Loop, bench.DefaultTuning(realm.DefaultConfig(nodes).CoresPerNode)
}
