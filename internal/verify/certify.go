package verify

// The certifier's entry points: Certify for a compiled loop, CertifyRebuild
// for a failover the recovery layer (internal/spmd/recover.go) recorded.

import (
	"fmt"

	"repro/internal/cr"
)

// Certify runs the certifier over one compiled loop and returns its suite,
// one report per pass in the order they ran: "agg" when c.Opts.Agg (the
// -agg license, CheckAgg), "prune" when prune is set (PlanPrune, whose
// license is attached to c.Prune only if its report is clean), then
// "races", "liveness" and "spec" over the schedule that will run. The
// caller decides what a finding means; an error is a plan the replay
// cannot build. One planner serves every pass: its base verdicts are the
// agg report's, the prune planning's and, unless a prune is licensed
// (then built and checked once, by PlanPrune's last step), the suite's.
func Certify(c *cr.Compiled, prune bool) (*Suite, error) {
	p, err := planOf(c)
	if err != nil {
		return nil, err
	}
	races, live := p.verdicts(p.base)
	var reps []*Report
	if c.Opts.Agg {
		reps = append(reps, aggVerdicts(aggTables(c), c, races, live))
	}
	if prune {
		info, rep, final := p.prune(races, live)
		if rep.OK() {
			c.Prune, live = info, final
			races = &Report{Pass: "races", Findings: []Finding{}, Stats: rep.Stats}
		}
		reps = append(reps, rep)
	}
	spec := &Report{Pass: "spec", Findings: []Finding{}}
	if err := CheckSpec(c); err != nil {
		spec.Findings = append(spec.Findings, Finding{Kind: "spec", Detail: err.Error()})
	}
	return &Suite{Reports: append(reps, races, live, spec)}, nil
}

// CertifyRebuild checks one failover rebuild against the compiled loop it
// rebuilt. A rebuild is certified when (1) the placement is valid — every
// shard on a live node, node 0 (the control thread) up, and the assignment
// blockwise monotone; (2) every used instance was repopulated, from the
// checkpoint or, on a restart from scratch, by the init phase, which may
// skip exactly the populations a certified prune proved dead; and (3) the
// iteration cursor resumes inside the loop. Defects are findings of kind
// "bad-rebuild", "dead-node-assignment" or "missing-restore", each naming
// the offending shard, node or instance. The schedule the rebuilt shards
// run is the compiled plan, which is placement-independent: Certify
// certifies it once for every rebuild.
func CertifyRebuild(c *cr.Compiled, rs *cr.RebuildSpec) *Report {
	rep := &Report{Pass: "recovery-cert", Findings: []Finding{}}
	fail := func(kind, format string, args ...any) {
		rep.Findings = append(rep.Findings, Finding{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}
	if c == nil || rs == nil {
		fail("bad-rebuild", "nil compiled loop or rebuild spec")
		return rep
	}
	ns := c.Opts.NumShards

	if rs.Nodes <= 0 {
		fail("bad-rebuild", "rebuild names %d nodes", rs.Nodes)
		return rep
	}
	live := make([]bool, rs.Nodes)
	for i := range live {
		live[i] = true
	}
	for _, n := range rs.Crashed {
		switch {
		case n == 0:
			fail("bad-rebuild", "node 0 crashed: the control thread is lost, no rebuild exists")
		case n < 0 || n >= rs.Nodes:
			fail("bad-rebuild", "crashed node %d outside the %d-node cluster", n, rs.Nodes)
		default:
			live[n] = false
		}
	}

	if len(rs.Assign) != ns {
		fail("bad-rebuild", "assignment covers %d shards, want %d", len(rs.Assign), ns)
	} else {
		for s, n := range rs.Assign {
			if n < 0 || n >= rs.Nodes {
				fail("dead-node-assignment", "shard %d assigned to node %d outside the %d-node cluster", s, n, rs.Nodes)
				continue
			}
			if !live[n] {
				fail("dead-node-assignment", "shard %d assigned to crashed node %d", s, n)
			}
			if s > 0 && n < rs.Assign[s-1] {
				fail("bad-rebuild", "assignment not blockwise monotone: shard %d on node %d after shard %d on node %d", s, n, s-1, rs.Assign[s-1])
			}
		}
	}

	// Restore coverage: an instance the rebuild did not repopulate is read
	// stale (or zero) by the resumed epoch, unless it restarted from scratch
	// and the instance's init is dead.
	for pi, part := range c.UsedParts {
		var mask []bool
		if pi < len(rs.Restored) {
			mask = rs.Restored[pi]
		}
		for _, col := range c.Domain {
			ci := c.ColorIdx[col]
			if ci < len(mask) && mask[ci] || rs.ResumeIter == 0 && c.Prune.SkipInit(part, ci) {
				continue
			}
			fail("missing-restore", "instance %s[%v] not restored from the checkpoint", part.Name(), col)
		}
	}

	trip := c.Loop.Trip
	if rs.ResumeIter < 0 || (trip > 0 && rs.ResumeIter >= trip) {
		fail("bad-rebuild", "resume iteration %d outside the loop (trip %d)", rs.ResumeIter, trip)
	}
	rep.Counters = map[string]int64{
		"nodes":       int64(rs.Nodes),
		"crashed":     int64(len(rs.Crashed)),
		"resume_iter": int64(rs.ResumeIter),
	}
	return rep
}
