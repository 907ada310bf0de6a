// Command crlang compiles a program written in the textual Regent-subset
// frontend (see internal/lang) and executes it — sequentially, on the
// implicit runtime, or control-replicated — printing the compiled plan and
// the final scalar environment.
//
// Usage:
//
//	crlang [-engine seq|implicit|cr] [-nodes N] [-dump] file.cr
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/realm"
	"repro/internal/rt"
	"repro/internal/spmd"
)

// checkFlags rejects an engine crlang does not have and, for the engines
// that run on the simulated machine, a node count no machine can have. It
// runs before the source file is read, so a bad flag never compiles.
func checkFlags(engine string, nodes int) error {
	switch engine {
	case "seq":
		return nil
	case "implicit", "cr":
		if nodes < 1 {
			return fmt.Errorf("bad -nodes %d (want at least 1)", nodes)
		}
		return nil
	}
	return fmt.Errorf("unknown engine %q", engine)
}

func main() {
	engine := flag.String("engine", "cr", "execution engine: seq, implicit, or cr")
	nodes := flag.Int("nodes", 4, "simulated node count (implicit, cr)")
	dump := flag.Bool("dump", false, "print the compiled ir program")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crlang [-engine seq|implicit|cr] [-nodes N] [-dump] file.cr")
		os.Exit(2)
	}
	if err := checkFlags(*engine, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "crlang:", err)
		os.Exit(1)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crlang:", err)
		os.Exit(1)
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crlang:", err)
		os.Exit(1)
	}
	if *dump {
		fmt.Print(ir.Dump(prog))
		fmt.Println()
	}

	var env ir.MapEnv
	switch *engine {
	case "seq":
		res := ir.ExecSequential(prog)
		env = res.Env
		fmt.Println("sequential execution complete")
	case "implicit":
		sim, err := realm.NewSim(realm.DefaultConfig(*nodes))
		if err != nil {
			fmt.Fprintln(os.Stderr, "crlang:", err)
			os.Exit(1)
		}
		res, err := rt.New(sim, prog, ir.ExecReal).Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "crlang:", err)
			os.Exit(1)
		}
		env = res.Env
		fmt.Printf("implicit execution complete: %v virtual, %d tasks, %d messages\n",
			res.Elapsed, res.Stats.TasksRun, res.Stats.Messages)
	case "cr":
		plans, err := spmd.CompileAll(prog, cr.Options{NumShards: *nodes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "crlang:", err)
			os.Exit(1)
		}
		// Program order: CompileAll plans every top-level loop, and a map
		// would print them in a different order from run to run.
		for _, s := range prog.Stmts {
			loop, ok := s.(*ir.Loop)
			if !ok {
				continue
			}
			plan := plans[loop]
			fmt.Printf("replicated loop %q: %d shards, body:\n", plan.Loop.Var, plan.Opts.NumShards)
			for i, op := range plan.Body {
				switch {
				case op.Launch != nil:
					fmt.Printf("  %d: launch %s\n", i, op.Launch.Label)
				case op.Copy != nil:
					fmt.Printf("  %d: %v\n", i, op.Copy)
				}
			}
		}
		sim, err := realm.NewSim(realm.DefaultConfig(*nodes))
		if err != nil {
			fmt.Fprintln(os.Stderr, "crlang:", err)
			os.Exit(1)
		}
		res, err := spmd.New(sim, prog, ir.ExecReal, plans).Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "crlang:", err)
			os.Exit(1)
		}
		env = res.Env
		fmt.Printf("control-replicated execution complete: %v virtual, %d tasks, %d messages\n",
			res.Elapsed, res.Stats.TasksRun, res.Stats.Messages)
	}

	if len(env) > 0 {
		var names []string
		for k := range env {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println("final scalars:")
		for _, k := range names {
			fmt.Printf("  %s = %g\n", k, env[k])
		}
	}
}
