// Command intersect regenerates Table 1 of the paper: the wall-clock
// running times of the dynamic region-intersection phases (shallow, using
// interval trees / BVHs over subregion bounds; complete, computing exact
// overlaps) for each application's communication partitions.
//
// Usage:
//
//	intersect [-nodes 64,1024] [-j workers] [-csv]
//
// Table 1 measures the compiler's intersection phases, which run on the
// host before any backend executes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/harness"
)

func main() {
	nodesFlag := flag.String("nodes", "64,1024", "comma-separated node counts")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "measurement cells to run in parallel (output rows are identical at any width)")
	csv := flag.Bool("csv", false, "emit CSV instead of a table")
	flag.Parse()

	nodes, err := bench.ParseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "intersect:", err)
		os.Exit(1)
	}
	rows, err := harness.Table1Parallel(nodes, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "intersect:", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Println("app,nodes,shallow_ms,complete_ms,candidates,pairs")
		for _, r := range rows {
			fmt.Printf("%s,%d,%.3f,%.3f,%d,%d\n", r.App, r.Nodes, r.ShallowMs, r.CompleteMs, r.Candidates, r.FinalPairs)
		}
		return
	}
	fmt.Print(harness.FormatTable1(rows))
}
