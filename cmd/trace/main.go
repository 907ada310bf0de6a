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
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/realm"
)

// checkFlags rejects a node or iteration count no run can have.
func checkFlags(nodes, iters int) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("bad -nodes %d (want at least 1)", nodes)
	case iters < 1:
		return fmt.Errorf("bad -iters %d (want at least 1)", iters)
	}
	return nil
}

func main() {
	appName := flag.String("app", "pennant", "application to trace")
	nodes := flag.Int("nodes", 4, "node count")
	iters := flag.Int("iters", 4, "loop iterations")
	useCR := flag.Bool("cr", true, "trace control-replicated execution (false: implicit runtime)")
	out := flag.String("o", "trace.json", "output file")
	flag.Parse()

	app, err := harness.AppByName(*appName)
	if err == nil {
		err = checkFlags(*nodes, *iters)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	prog, loop := app.BuildProgram(*nodes)
	loop.Trip = *iters

	sim, err := realm.NewSim(realm.DefaultConfig(*nodes))
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	tr := realm.NewTracer()
	sim.SetTracer(tr)

	run := bench.RunImplicit
	if *useCR {
		run = bench.RunCR
	}
	if _, err := run(prog, bench.Config{Nodes: *nodes, Mode: ir.ExecModeled, Exec: sim}); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d task spans, %d messages across %d nodes (%s, %s)\n",
		*out, tr.Spans(), tr.Messages(), *nodes, app.Name,
		map[bool]string{true: "control-replicated", false: "implicit"}[*useCR])
}
