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
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lang"
)

func main() { os.Exit(run(bench.NewFlags("crlang", os.Stderr), os.Args[1:], os.Stdout)) }

// run is crlang over the flag set f, writing to stdout and f.Stderr; it
// returns the exit status. Every error is printed as "crlang: " lines, one
// per line of the error, so each of a source's syntax errors gets its own.
func run(f *bench.Flags, args []string, stdout io.Writer) int {
	engine := f.String("engine", "cr", "execution engine: seq, implicit, or cr")
	f.Nodes("simulated node count (implicit, cr)")
	dump := f.Bool("dump", false, "print the compiled ir program")
	if err := f.Parse(args); err != nil {
		return f.Fail(err)
	}
	if f.NArg() != 1 {
		return f.Fail(errors.New("usage: crlang [-engine seq|implicit|cr] [-nodes N] [-dump] file.cr"))
	}
	// Both checks run before the source file is read, so a bad flag never
	// compiles. The sequential engine ignores -nodes.
	var err error
	switch *engine {
	case "seq":
	case "implicit", "cr":
		err = f.Check()
	default:
		err = fmt.Errorf("unknown engine %q", *engine)
	}
	var env ir.MapEnv
	if err == nil {
		env, err = execute(f.Arg(0), *engine, f.Config, *dump, stdout)
	}
	if err != nil {
		return f.Fail(err)
	}
	if len(env) > 0 {
		var names []string
		for k := range env {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "final scalars:")
		for _, k := range names {
			fmt.Fprintf(stdout, "  %s = %g\n", k, env[k])
		}
	}
	return 0
}

// execute compiles the source file and runs it on engine, printing the
// plan and a summary to out, and returns the final scalar environment.
func execute(path, engine string, cfg bench.Config, dump bool, out io.Writer) (ir.MapEnv, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Compile(string(src))
	if err != nil {
		return nil, err
	}
	if dump {
		fmt.Fprintln(out, ir.Dump(prog))
	}

	switch engine {
	case "seq":
		env, err := execSequential(prog)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(out, "sequential execution complete")
		return env, nil
	case "implicit":
		res, err := bench.RunImplicit(prog, cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "implicit execution complete: %v virtual, %d tasks, %d messages\n",
			res.Elapsed, res.Stats.TasksRun, res.Stats.Messages)
		return res.Env, nil
	}
	res, err := bench.RunCR(prog, cfg)
	if res != nil {
		// Program order: the runner plans every top-level loop, and a map
		// would print them in a different order from run to run.
		for _, s := range prog.Stmts {
			loop, ok := s.(*ir.Loop)
			if !ok {
				continue
			}
			plan := res.Plans[loop]
			fmt.Fprintf(out, "replicated loop %q: %d shards, body:\n", plan.Loop.Var, plan.Opts.NumShards)
			for i, op := range plan.Body {
				switch {
				case op.Launch != nil:
					fmt.Fprintf(out, "  %d: launch %s\n", i, op.Launch.Label)
				case op.Copy != nil:
					fmt.Fprintf(out, "  %d: %v\n", i, op.Copy)
				}
			}
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "control-replicated execution complete: %v virtual, %d tasks, %d messages\n",
		res.Elapsed, res.Stats.TasksRun, res.Stats.Messages)
	return res.Env, nil
}

// execSequential runs prog under ir.ExecSequential. A kernel that indexes
// outside its argument panics in the region layer under every engine; the
// simulated engines return that panic as an error, and so does this.
func execSequential(prog *ir.Program) (env ir.MapEnv, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ir: task execution panicked: %v", r)
		}
	}()
	return ir.ExecSequential(prog).Env, nil
}
