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
//	    [-sync p2p|barrier] [-pairs] [-prune] [-agg] [-verify]
//	    [-verify-json file]
//
// -verify runs the schedule certifier (verify.Certify) over the compiled
// loop as it will run: the race pass (every conflicting access pair must
// be ordered by the inserted copies and sync), the liveness pass (the
// wait-for graph must be free of cycles, never-triggered events, and
// barrier phase mismatches), and the spec pass (the specialization tables
// must match recomputation), preceded by the agg and prune passes when
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
// Exit status: 0 on success, 1 on usage or compile errors, 2 when any
// certification pass reports findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/region"
	"repro/internal/verify"
)

// checkNodes rejects a node count no app can be built for.
func checkNodes(n int) error {
	if n < 1 {
		return fmt.Errorf("bad -nodes %d (want at least 1)", n)
	}
	return nil
}

func main() {
	appName := flag.String("app", "stencil", "application to compile")
	nodes := flag.Int("nodes", 4, "node count to build the app for")
	shards := flag.Int("shards", 0, "shard count (default: nodes)")
	syncMode := flag.String("sync", "p2p", "synchronization lowering: p2p or barrier")
	showPairs := flag.Bool("pairs", false, "list every communication pair")
	dump := flag.Bool("dump", false, "print the source program before compiling")
	doVerify := flag.Bool("verify", false, "run the schedule certifier: races, liveness, spec (exit 2 on findings)")
	verifyJSON := flag.String("verify-json", "", "write the certification suite as JSON to this file (\"-\" = stdout); implies -verify")
	doPrune := flag.Bool("prune", false, "run the certified redundant-sync pruning pass and report what it removes")
	doAgg := flag.Bool("agg", false, "compile with coalesced exchange plans (one message per destination shard per exchange phase) and report the aggregation groups")
	flag.Parse()

	// With the JSON suite going to stdout, the human-readable report moves
	// to stderr so stdout stays machine-parseable (crc ... -verify-json - |
	// jq). fmt.Print* resolves os.Stdout at each call, so the swap covers
	// every report line; jsonOut keeps the real stream for the suite.
	jsonOut := os.Stdout
	if *verifyJSON == "-" {
		os.Stdout = os.Stderr
	}

	app, err := harness.AppByName(*appName)
	if err == nil {
		err = checkNodes(*nodes)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crc:", err)
		os.Exit(1)
	}
	if *shards == 0 {
		*shards = *nodes
	}
	sync := cr.PointToPoint
	if *syncMode == "barrier" {
		sync = cr.BarrierSync
	} else if *syncMode != "p2p" {
		fmt.Fprintf(os.Stderr, "crc: unknown sync mode %q\n", *syncMode)
		os.Exit(1)
	}

	prog, loop := app.BuildProgram(*nodes)
	if *dump {
		fmt.Print(ir.Dump(prog))
		fmt.Println()
	}
	plan, err := cr.Compile(prog, loop, cr.Options{NumShards: *shards, Sync: sync, Agg: *doAgg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crc:", err)
		os.Exit(1)
	}

	fmt.Printf("control replication: %s @ %d nodes, %d shards, %s sync\n\n",
		app.Name, *nodes, plan.Opts.NumShards, plan.Opts.Sync)

	fmt.Printf("launch domain: %d points, block-partitioned over %d shards (%d..%d colors each)\n",
		len(plan.Domain), plan.Opts.NumShards,
		len(plan.Owned[len(plan.Owned)-1]), len(plan.Owned[0]))

	fmt.Println("\npartitions used in the replicated loop:")
	for _, p := range plan.UsedParts {
		kind := "aliased"
		if p.Disjoint() {
			kind = "disjoint"
		}
		fmt.Printf("  %-24s %-9s fields=%v\n", p.Name(), kind, plan.PartFields[p])
	}

	fmt.Println("\ntransformed loop body:")
	for i, op := range plan.Body {
		switch {
		case op.Launch != nil:
			label := op.Launch.Label
			if label == "" {
				label = op.Launch.Task.Name
			}
			fmt.Printf("  %2d  launch %s\n", i, label)
		case op.Set != nil:
			fmt.Printf("  %2d  scalar %s = ...\n", i, op.Set.Name)
		case op.Copy != nil:
			fmt.Printf("  %2d  %v\n", i, op.Copy)
			if *showPairs {
				for _, pr := range op.Copy.Pairs {
					fmt.Printf("        %v -> %v  overlap %d elements (shard %d -> %d)\n",
						pr.Src, pr.Dst, pr.Overlap.Volume(), plan.ShardOf[pr.Src], plan.ShardOf[pr.Dst])
				}
			}
		}
	}
	if len(plan.InitCopies) > 0 {
		fmt.Println("\nhoisted loop-invariant copies (run once before the loop):")
		for _, cp := range plan.InitCopies {
			fmt.Printf("  %v\n", cp)
		}
	}

	fmt.Println("\nfinalization sources (disjoint written partitions):")
	for _, p := range plan.WrittenDisjoint {
		fmt.Printf("  %s\n", p.Name())
	}

	fmt.Printf("\nplacement report: inserted=%d redundant-removed=%d dead-removed=%d hoisted=%d final=%d\n",
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
	fmt.Printf("communication: %d pairs per iteration (%d reduction applies), %d elements moved\n",
		count, reduceCount, vol)
	fmt.Printf("intersections: shallow %v (%d candidates), complete %v (%d non-empty pairs)\n",
		plan.Timings.Shallow, plan.Timings.Candidates, plan.Timings.Complete, plan.Timings.Pairs)

	verifying := *doVerify || *verifyJSON != ""
	suite := &verify.Suite{}
	if *doAgg || *doPrune || verifying {
		if suite, err = verify.Certify(plan, *doPrune); err != nil {
			fmt.Fprintln(os.Stderr, "crc: verify:", err)
			os.Exit(1)
		}
	}
	var races verify.Stats
	for _, rep := range suite.Reports {
		c := rep.Counters
		switch rep.Pass {
		case "agg":
			fmt.Printf("\ncoalesced exchange plans: %d phases, %d groups (%d multi-member), %d pairs merged away per iteration\n",
				c["phases"], c["agg_groups"], c["multi_member_groups"], c["merged_pairs"])
			for pi, ph := range plan.Spec.Phases {
				fmt.Printf("  phase %d: ops [%d,%d)\n", pi, ph.Start, ph.End)
				for s, gl := range ph.ByShard {
					for _, g := range gl {
						if len(g.Members) < 2 {
							continue
						}
						fmt.Printf("    shard %d -> %d: %d pairs in one message\n", s, g.DstShard, len(g.Members))
					}
				}
			}
		case "prune":
			if plan.Prune != nil {
				fmt.Printf("\ncertified pruning: %d sync edges removed (%d war, %d done, %d chain), %d dead init copies; sync edges %d -> %d\n",
					c["pruned_edges"], c["pruned_war"], c["pruned_done"], c["pruned_chain"],
					c["pruned_init_copies"], c["sync_edges_before"], c["sync_edges_after"])
			}
		case "races":
			races = rep.Stats
		}
	}

	if verifying {
		if *verifyJSON != "" {
			buf, err := json.MarshalIndent(suite, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "crc: verify:", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if *verifyJSON == "-" {
				jsonOut.Write(buf)
			} else if err := os.WriteFile(*verifyJSON, buf, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "crc: verify:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nstatic certification: %d conflicts (%d cross-shard) over %d instances, %d-node happens-before graph\n",
			races.Conflicts, races.CrossShard, races.Instances, races.Nodes)
		if suite.OK() {
			fmt.Println("certified: races, liveness, and spec passes all clean")
		} else {
			for _, rep := range suite.Reports {
				for _, f := range rep.Findings {
					fmt.Printf("  FAIL [%s] %s\n", rep.Pass, f)
				}
			}
			fmt.Printf("certification FAILED: %d findings\n", suite.NumFindings())
			os.Exit(2)
		}
	}
}
