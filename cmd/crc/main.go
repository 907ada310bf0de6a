// Command crc is the control replication compiler driver: it builds one of
// the evaluation applications' implicitly parallel programs, runs the
// control replication pass on its main loop, and dumps the result of each
// phase — the transformed loop body with the inserted copies, the
// placement report, the communication pairs, the shard ownership, and the
// intersection timings.
//
// Usage:
//
//	crc [-app stencil|miniaero|pennant|circuit] [-nodes N] [-shards N]
//	    [-sync p2p|barrier] [-pairs] [-dump] [-prune] [-agg] [-verify]
//	    [-verify-json file]
//
// -verify runs the schedule certifier (verify.Certify) over the compiled
// loop as it will run: the race pass (every conflicting access pair must
// be ordered by the inserted copies and sync), the liveness pass (the
// wait-for graph must be free of cycles, never-triggered events, and
// barrier phase mismatches), and the spec pass (the compiled exchange step
// lists and color slots must match recomputation), preceded by the agg and
// prune passes when
// -agg and -prune are given. -verify-json writes the suite — one
// verify.Report per pass, in that order, each with its pass name,
// findings, stats, and counters — as JSON to the given file, or to stdout
// with "-", and implies -verify.
//
// -prune runs the certified redundant-sync pruning pass and reports which
// sync edges and init copies it removes; -verify then certifies the pruned
// schedule.
//
// -agg compiles with coalesced exchange plans — each exchange phase's copy
// pairs merged into one message per (producing shard, destination shard)
// group — runs the verify.CheckAgg certification over the aggregated
// schedule (table recomputation, liveness, races), and reports the phases
// and multi-member groups. With -prune as well, the prune is planned for
// the aggregated schedule, and -verify certifies the composed one.
//
// -dump prints the source program before compiling it.
//
// Exit status: 0 on success, 1 on usage or compile errors, 2 when any
// certification pass reports findings.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/region"
	"repro/internal/verify"
)

func main() { os.Exit(run(bench.NewFlags("crc", os.Stderr), os.Args[1:], os.Stdout)) }

// run is crc over the flag set f, writing to stdout and f.Stderr; it
// returns the exit status.
func run(f *bench.Flags, args []string, stdout io.Writer) int {
	cfg := &f.Config
	appName := f.String("app", "stencil", "application to compile")
	f.Nodes("node count to build the app for")
	f.Shards()
	showPairs := f.Bool("pairs", false, "list every communication pair")
	dump := f.Bool("dump", false, "print the source program before compiling")
	doVerify := f.Bool("verify", false, "run the schedule certifier: races, liveness, spec (exit 2 on findings)")
	verifyJSON := f.String("verify-json", "", "write the certification suite as JSON to this file (\"-\" = stdout); implies -verify")
	f.BoolVar(&cfg.Prune, "prune", false, "run the certified redundant-sync pruning pass and report what it removes")
	f.BoolVar(&cfg.Agg, "agg", false, "compile with coalesced exchange plans (one message per destination shard per exchange phase) and report the aggregation groups")
	if err := f.Parse(args); err != nil {
		return f.Fail(err)
	}
	// With the JSON suite going to stdout, the human-readable report moves
	// to stderr so stdout stays machine-parseable (crc ... -verify-json - |
	// jq).
	out := stdout
	if *verifyJSON == "-" {
		out = f.Stderr
	}

	app, err := harness.AppByName(*appName)
	if err == nil {
		err = f.Check()
	}
	if err != nil {
		return f.Fail(err)
	}

	prog, loop := app.BuildProgram(cfg.Nodes)
	if *dump {
		fmt.Fprint(out, ir.Dump(prog))
		fmt.Fprintln(out)
	}
	plan, err := cr.Compile(prog, loop, cfg.Options())
	if err != nil {
		return f.Fail(err)
	}

	fmt.Fprintf(out, "control replication: %s @ %d nodes, %d shards, %s sync\n\n",
		app.Name, cfg.Nodes, plan.Opts.NumShards, plan.Opts.Sync)

	fmt.Fprintf(out, "launch domain: %d points, block-partitioned over %d shards (%d..%d colors each)\n",
		len(plan.Domain), plan.Opts.NumShards,
		len(plan.Owned[len(plan.Owned)-1]), len(plan.Owned[0]))

	fmt.Fprintln(out, "\npartitions used in the replicated loop:")
	for _, p := range plan.UsedParts {
		kind := "aliased"
		if p.Disjoint() {
			kind = "disjoint"
		}
		fmt.Fprintf(out, "  %-24s %-9s fields=%v\n", p.Name(), kind, plan.PartFields[p])
	}

	fmt.Fprintln(out, "\ntransformed loop body:")
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			label := op.Launch.Label
			if label == "" {
				label = op.Launch.Task.Name
			}
			fmt.Fprintf(out, "  %2d  launch %s\n", i, label)
		case op.Set != nil:
			fmt.Fprintf(out, "  %2d  scalar %s = ...\n", i, op.Set.Name)
		case op.Copy != nil:
			fmt.Fprintf(out, "  %2d  %v\n", i, op.Copy)
			if *showPairs {
				for _, pr := range op.Copy.Pairs {
					fmt.Fprintf(out, "        %v -> %v  overlap %d elements (shard %d -> %d)\n",
						pr.Src, pr.Dst, pr.Overlap.Volume(), plan.ShardOf[pr.Src], plan.ShardOf[pr.Dst])
				}
			}
		}
	}
	if len(plan.InitCopies) > 0 {
		fmt.Fprintln(out, "\nhoisted loop-invariant copies (run once before the loop):")
		for _, cp := range plan.InitCopies {
			fmt.Fprintf(out, "  %v\n", cp)
		}
	}

	fmt.Fprintln(out, "\nfinalization sources (disjoint written partitions):")
	for _, p := range plan.WrittenDisjoint {
		fmt.Fprintf(out, "  %s\n", p.Name())
	}

	fmt.Fprintf(out, "\nplacement report: inserted=%d redundant-removed=%d dead-removed=%d hoisted=%d final=%d\n",
		plan.Report.CopiesInserted, plan.Report.RedundantRemoved,
		plan.Report.DeadRemoved, plan.Report.Hoisted, plan.Report.FinalCopies)

	var vol int64
	count := 0
	reduceCount := 0
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		count += len(op.Copy.Pairs)
		if op.Copy.Reduce != region.ReduceNone {
			reduceCount += len(op.Copy.Pairs)
		}
		for _, pr := range op.Copy.Pairs {
			vol += pr.Overlap.Volume()
		}
	}
	fmt.Fprintf(out, "communication: %d pairs per iteration (%d reduction applies), %d elements moved\n",
		count, reduceCount, vol)
	fmt.Fprintf(out, "intersections: shallow %v (%d candidates), complete %v (%d non-empty pairs)\n",
		plan.Timings.Shallow, plan.Timings.Candidates, plan.Timings.Complete, plan.Timings.Pairs)

	verifying := *doVerify || *verifyJSON != ""
	suite := &verify.Suite{}
	if cfg.Agg || cfg.Prune || verifying {
		if suite, err = verify.Certify(plan, cfg.Prune); err != nil {
			return f.Fail(fmt.Errorf("verify: %w", err))
		}
	}
	var races verify.Stats
	for _, rep := range suite.Reports {
		c := rep.Counters
		switch rep.Pass {
		case "agg":
			fmt.Fprintf(out, "\ncoalesced exchange plans: %d phases, %d groups (%d multi-member), %d pairs merged away per iteration\n",
				c["phases"], c["agg_groups"], c["multi_member_groups"], c["merged_pairs"])
			pi := 0
			for i, x := range plan.Exchanges {
				if x.End == i {
					continue
				}
				fmt.Fprintf(out, "  phase %d: ops [%d,%d)\n", pi, i, x.End)
				pi++
				for s, steps := range x.Steps {
					for _, st := range steps {
						if len(st.Members) > 1 {
							fmt.Fprintf(out, "    shard %d -> %d: %d pairs in one message\n", s, st.DstShard, len(st.Members))
						}
					}
				}
			}
		case "prune":
			if plan.Prune != nil {
				fmt.Fprintf(out, "\ncertified pruning: %d sync edges removed (%d war, %d done, %d chain), %d dead init copies; sync edges %d -> %d\n",
					c["pruned_edges"], c["pruned_war"], c["pruned_done"], c["pruned_chain"],
					c["pruned_init_copies"], c["sync_edges_before"], c["sync_edges_after"])
			}
		case "races":
			races = rep.Stats
		}
	}

	if !verifying {
		return 0
	}
	if err := bench.WriteSuites(*verifyJSON, stdout, suite); err != nil {
		return f.Fail(fmt.Errorf("verify: %w", err))
	}
	fmt.Fprintf(out, "\nstatic certification: %d conflicts (%d cross-shard) over %d instances, %d-node happens-before graph\n",
		races.Conflicts, races.CrossShard, races.Instances, races.Nodes)
	if suite.OK() {
		fmt.Fprintln(out, "certified: races, liveness, and spec passes all clean")
		return 0
	}
	n := bench.WriteFindings(out, "  ", suite)
	fmt.Fprintf(out, "certification FAILED: %d findings\n", n)
	return 2
}
