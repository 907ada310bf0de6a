package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cr"
	"repro/internal/ir"
	"repro/internal/progtest"
	"repro/internal/verify"
)

// certify is compile + certify with the machine idle: no engine runs, so
// realm and spmd do nothing and the time sits in cr, intersect, geometry
// and verify. Its three sets are the verdicts a user asks the certifier
// for (check), the pass ROADMAP names as the costliest (prune), and inputs
// whose answer is known in advance (random programs must certify clean,
// mutants must be caught).
var certify = workload{
	name: "certify",
	why:  "cr.Compile then Verify/CheckSpec/CheckAgg/PlanPrune plus known-answer random programs and mutants: stresses cr, intersect, geometry and verify while realm and spmd are idle",
	prepare: func(sz sizes, seed int64) ([]cell, error) {
		rng := rand.New(rand.NewSource(seed))
		var cells []cell
		for _, spec := range appSpecs {
			spec := spec
			for _, n := range sz.checkShards {
				for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
					n, sync := n, sync
					prog, loop := spec.build(sizePaper, n, spec.iters)
					cells = append(cells, cell{
						name: fmt.Sprintf("%s/check-%v/%d", spec.name, sync, n), ref: true,
						run: func(p *pass) (string, error) { return checkCell(p, prog, loop, n, sync) },
					})
				}
			}
			if n := sz.pruneShards[spec.name]; n > 0 {
				prog, loop := spec.build(sizePaper, n, spec.iters)
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/prune/%d", spec.name, n), ref: true,
					run: func(p *pass) (string, error) { return pruneCell(p, prog, loop, n) },
				})
			}
			prog, loop := spec.build(sizePaper, sz.mutantShards, spec.iters)
			mseed := rng.Int63()
			cells = append(cells, cell{
				name: fmt.Sprintf("%s/mutants/%d", spec.name, sz.mutantShards),
				run: func(p *pass) (string, error) {
					return "", mutantCell(p, prog, loop, sz.mutantShards, sz.mutants, mseed)
				},
			})
		}
		for i := 0; i < sz.randomProgs; i++ {
			pseed := seed + int64(i)
			prog, _, _ := progtest.RandomProgram(pseed)
			cells = append(cells, cell{
				name: fmt.Sprintf("random/%d", i),
				run:  func(p *pass) (string, error) { return "", randomCell(p, prog, pseed) },
			})
		}
		return cells, nil
	},
	probes: func(sz sizes) []cell {
		if sz.probeNodes == 0 {
			return nil
		}
		// The one cost ROADMAP names outright: the 1024-shard PENNANT plan.
		return []cell{{name: fmt.Sprintf("probe/pennant/prune/%d", sz.probeNodes), run: func(p *pass) (string, error) {
			n := p.sz.probeNodes
			prog, loop := specByName("pennant").build(sizePaper, n, 0)
			_, err := pruneCell(p.spansOnly(), prog, loop, n)
			return "", err
		}}}
	},
}

func compileSpan(p *pass, name string, prog *ir.Program, loop *ir.Loop, o cr.Options) (*cr.Compiled, error) {
	var plan *cr.Compiled
	var err error
	done := p.tr.span(name)
	p.add("cr.compile_alloc_mb", allocMB(func() { plan, err = cr.Compile(prog, loop, o) }))
	done()
	if err == nil {
		p.countPlan(plan)
	}
	return plan, err
}

// checkCell is the time to a verdict on one compiled loop: the race and
// liveness check of the schedule, the spec-table check, and the
// certification of its aggregated form.
func checkCell(p *pass, prog *ir.Program, loop *ir.Loop, n int, sync cr.SyncMode) (string, error) {
	p.tr.at(n)
	plan, err := compileSpan(p, "cr.compile", prog, loop, cr.Options{NumShards: n, Sync: sync})
	if err != nil {
		return "", err
	}
	var rep *verify.Report
	done := p.tr.span("verify.verify")
	p.add("verify.alloc_mb", allocMB(func() { rep, err = verify.Verify(plan) }))
	done()
	if err != nil {
		return "", err
	}
	done = p.tr.span("verify.check_spec")
	err = verify.CheckSpec(plan)
	done()
	if err != nil {
		return "", fmt.Errorf("CheckSpec: %w", err)
	}
	aplan, err := compileSpan(p, "cr.agg_compile", prog, loop, cr.Options{NumShards: n, Sync: sync, Agg: true})
	if err != nil {
		return "", err
	}
	var arep *verify.Report
	done = p.tr.span("verify.check_agg")
	p.add("verify.alloc_mb", allocMB(func() { arep, err = verify.CheckAgg(aplan) }))
	done()
	if err != nil {
		return "", err
	}
	p.add("verify.graph_nodes", float64(rep.Stats.Nodes))
	p.add("verify.graph_edges", float64(rep.Stats.Edges))
	p.add("verify.conflicts", float64(rep.Stats.Conflicts))
	p.add("verify.agg_groups", float64(arep.Counters["agg_groups"]))
	p.add("verify.agg_merged_pairs", float64(arep.Counters["merged_pairs"]))
	p.add("verify.findings_clean", float64(len(rep.Findings)+len(arep.Findings)))
	return fmt.Sprintf("findings=%d agg_findings=%d nodes=%d edges=%d conflicts=%d agg_groups=%d",
		len(rep.Findings), len(arep.Findings), rep.Stats.Nodes, rep.Stats.Edges, rep.Stats.Conflicts,
		arep.Counters["agg_groups"]), nil
}

// pruneCell plans the certified redundant-sync pruning of one loop.
func pruneCell(p *pass, prog *ir.Program, loop *ir.Loop, n int) (string, error) {
	p.tr.at(n)
	plan, err := compileSpan(p, "cr.compile", prog, loop, cr.Options{NumShards: n})
	if err != nil {
		return "", err
	}
	var rep *verify.Report
	done := p.tr.span("verify.plan_prune")
	p.add("verify.alloc_mb", allocMB(func() { _, rep, err = verify.PlanPrune(plan) }))
	done()
	if err != nil {
		return "", err
	}
	c := rep.Counters
	p.add("verify.sync_edges_before", float64(c["sync_edges_before"]))
	p.add("verify.sync_edges_after", float64(c["sync_edges_after"]))
	p.add("verify.pruned_init_copies", float64(c["pruned_init_copies"]))
	p.add("verify.findings_clean", float64(len(rep.Findings)))
	return fmt.Sprintf("findings=%d sync_edges_before=%d sync_edges_after=%d pruned_init_copies=%d",
		len(rep.Findings), c["sync_edges_before"], c["sync_edges_after"], c["pruned_init_copies"]), nil
}

// mutantCell draws `draw` essential sync deletions and `draw` liveness
// miswirings of the loop's schedule from the seed; the certifier must
// report each with a finding that points at the mutated copy.
func mutantCell(p *pass, prog *ir.Program, loop *ir.Loop, n, draw int, seed int64) error {
	p.tr.at(n)
	rng := rand.New(rand.NewSource(seed))
	plan, err := compileSpan(p, "cr.compile", prog, loop, cr.Options{NumShards: n})
	if err != nil {
		return err
	}
	done := p.tr.span("verify.analyze")
	a, err := verify.Analyze(plan)
	done()
	if err != nil {
		return err
	}
	defer p.tr.span("verify.mutant_check")()
	var essential []verify.Mutation
	for _, m := range a.Mutations() {
		if m.Essential {
			essential = append(essential, m)
		}
	}
	live := a.LivenessMutations()
	if len(essential) == 0 || len(live) == 0 {
		return fmt.Errorf("no mutants to draw from (%d essential, %d liveness)", len(essential), len(live))
	}
	covered := func(findings []verify.Finding, covers func(verify.Finding) bool) bool {
		for _, f := range findings {
			if covers(f) {
				return true
			}
		}
		return false
	}
	var missed []string
	for i := 0; i < draw; i++ {
		m := essential[rng.Intn(len(essential))]
		p.add("verify.mutants", 1)
		if covered(a.Check(m.Drop...).Findings, m.Covers) {
			p.add("verify.mutants_detected", 1)
		} else {
			missed = append(missed, m.Name)
		}
		lm := live[rng.Intn(len(live))]
		p.add("verify.mutants", 1)
		if covered(a.CheckLivenessMutated(lm).Findings, lm.Covers) {
			p.add("verify.mutants_detected", 1)
		} else {
			missed = append(missed, lm.Name)
		}
	}
	if len(missed) > 0 {
		return fmt.Errorf("mutants not detected: %v", missed)
	}
	return nil
}

// randomCell certifies every loop of one random program under both
// lowerings; a well-formed program must come out clean.
func randomCell(p *pass, prog *ir.Program, seed int64) error {
	const shards = 3 // the random programs have 3..6 colors
	p.tr.at(shards)
	for _, s := range prog.Stmts {
		loop, ok := s.(*ir.Loop)
		if !ok {
			continue
		}
		for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
			plan, err := compileSpan(p, "cr.compile", prog, loop, cr.Options{NumShards: shards, Sync: sync})
			if err != nil {
				return err
			}
			done := p.tr.span("verify.verify")
			a, err := verify.Analyze(plan)
			var findings []verify.Finding
			if err == nil {
				findings = append(a.Check().Findings, a.CheckLiveness().Findings...)
			}
			done()
			if err != nil {
				return err
			}
			p.add("verify.findings_clean", float64(len(findings)))
			if len(findings) > 0 {
				return fmt.Errorf("random program %d, %v: %d findings, first: %v", seed, sync, len(findings), findings[0])
			}
			done = p.tr.span("verify.check_spec")
			err = verify.CheckSpec(plan)
			done()
			if err != nil {
				return fmt.Errorf("random program %d, %v: CheckSpec: %w", seed, sync, err)
			}
		}
	}
	return nil
}
