// DSL example: a 1-D heat-diffusion program written in the textual
// Regent-subset frontend, compiled to ir, control-replicated, and verified
// against sequential execution — the full pipeline of the paper, from
// source text with declared partitions and privileges to SPMD shards, with
// no hand-built IR anywhere.
//
// Run with: go run ./examples/dsl
package main

import (
	"fmt"
	"log"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progtest"
	"repro/internal/realm"
	"repro/internal/spmd"
)

const source = `
program heat

# A ring of 64 cells: new temperature is the neighbor average, with a
# constant source term; total energy is sum-reduced every step.
region T[0..63]    fields { cur }
region TNEW[0..63] fields { next }

partition PT   = block(T, 8)
partition PNEW = block(TNEW, 8)
partition HALO = image(T, PT, ring(-1, 1))     # periodic footprint: own cells +-1

task diffuse(out: region writes(next), in: region reads(cur)) {
  for p in out {
    out.next[p] = 0.25 * in.cur[p - 1 mod 64]
                + 0.5  * in.cur[p]
                + 0.25 * in.cur[p + 1 mod 64]
  }
}

task commit(t: region writes(cur), n: region reads(next), source: scalar) {
  for p in t { t.cur[p] = n.next[p] + source }
}

task energy(t: region reads(cur)) {
  for p in t { result += t.cur[p] }
}

fill T.cur     = idx
fill TNEW.next = 0
var heating = 0.01

for step = 0, 6 {
  launch diffuse(PNEW[i], HALO[i])
  launch commit(PT[i], PNEW[i]; heating)
  reduce + total = launch energy(PT[i])
}
`

func main() {
	const nodes = 4

	prog, err := lang.Compile(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compiled source program:")
	fmt.Print(ir.Dump(prog))

	// Sequential reference.
	seqProg, _ := lang.Compile(source)
	seq := ir.ExecSequential(seqProg)

	// Control replication.
	plans, err := spmd.CompileAll(prog, cr.Options{NumShards: nodes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncontrol-replicated main loop:")
	for _, s := range prog.Stmts { // program order; CompileAll plans every top-level loop
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		for i, op := range plans[loop].Body {
			switch {
			case op.Launch != nil:
				fmt.Printf("  %d: launch %s\n", i, op.Launch.Label)
			case op.Copy != nil:
				fmt.Printf("  %d: %v\n", i, op.Copy)
			}
		}
	}

	sim := realm.MustNewSim(realm.DefaultConfig(nodes))
	res, err := spmd.New(sim, prog, ir.ExecReal, plans).Run()
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the sequential run: every field of every region and
	// every scalar, bitwise.
	if err := progtest.Diff(seq, &ir.SeqResult{Stores: res.Stores, Env: res.Env}); err != nil {
		log.Fatalf("CR diverged from sequential semantics:\n%v", err)
	}
	fmt.Printf("\ntotal energy after 6 steps: %.4f — CR bitwise identical to sequential ✓\n", res.Env["total"])
	fmt.Printf("virtual elapsed %v, %d messages\n", res.Elapsed, res.Stats.Messages)
}
