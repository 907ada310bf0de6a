// Command trace runs one of the evaluation applications under control
// replication (or the implicit runtime) on the simulated machine with the
// timeline tracer attached, and writes the execution timeline in Chrome
// Trace Event Format — open it in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing to see per-processor task occupancy and the halo
// messages between nodes.
//
// Usage:
//
//	trace [-app stencil|miniaero|pennant|circuit] [-nodes N] [-cr=true]
//	      [-iters N] [-o trace.json]
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/realm"
)

func main() { os.Exit(run(bench.NewFlags("trace", os.Stderr), os.Args[1:], os.Stdout)) }

// run is trace over the flag set f, writing to stdout and f.Stderr; it
// returns the exit status.
func run(f *bench.Flags, args []string, stdout io.Writer) int {
	cfg := &f.Config
	appName := f.String("app", "pennant", "application to trace")
	f.Nodes("node count")
	iters := f.Int("iters", 4, "loop iterations")
	useCR := f.Bool("cr", true, "trace control-replicated execution (false: implicit runtime)")
	out := f.String("o", "trace.json", "output file")
	if err := f.Parse(args); err != nil {
		return f.Fail(err)
	}
	app, err := harness.AppByName(*appName)
	if err == nil {
		err = f.Check()
	}
	if err == nil && *iters < 1 {
		err = fmt.Errorf("bad -iters %d (want at least 1)", *iters)
	}
	if err != nil {
		return f.Fail(err)
	}
	prog, loop := app.BuildProgram(cfg.Nodes)
	loop.Trip = *iters

	sim, err := realm.NewSim(realm.DefaultConfig(cfg.Nodes))
	if err != nil {
		return f.Fail(err)
	}
	tr := realm.NewTracer()
	sim.SetTracer(tr)

	runner := bench.RunImplicit
	if *useCR {
		runner = bench.RunCR
	}
	cfg.Mode, cfg.Exec = ir.ExecModeled, sim
	if _, err := runner(prog, *cfg); err != nil {
		return f.Fail(err)
	}

	file, err := os.Create(*out)
	if err != nil {
		return f.Fail(err)
	}
	err = tr.WriteChromeTrace(file)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return f.Fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s: %d task spans, %d messages across %d nodes (%s, %s)\n",
		*out, tr.Spans(), tr.Messages(), cfg.Nodes, app.Name,
		map[bool]string{true: "control-replicated", false: "implicit"}[*useCR])
	return 0
}
