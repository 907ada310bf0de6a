package spmd

// Static construction of failover-rebuilt schedules. The recovery layer
// (recover.go) rebuilds placement and state dynamically when a node
// crashes; this file performs the same construction without running
// anything, so the schedule certifier (internal/verify.CertifyRebuild) can
// check every logical crash point of a fault plan exhaustively instead of
// sampling a few crashes dynamically. The two constructions must agree:
// liveAssign and RebuildAssignment share one body, and PlanRebuild's
// restore set mirrors restorePhase's loop over UsedParts x Domain.

import (
	"repro/internal/cr"
	"repro/internal/region"
)

// RebuildAssignment maps ns shards blockwise onto the live node list
// (ascending node ids); with every node alive it reproduces the static
// placement of §4.2 (shard s on node s*Nodes/NumShards). This is the exact
// assignment the recovery layer installs after failover.
func RebuildAssignment(ns int, live []int) []int {
	assign := make([]int, ns)
	for s := range assign {
		assign[s] = live[s*len(live)/ns]
	}
	return assign
}

// liveAssign maps shards blockwise onto the live nodes; node 0 always
// counts as live — it hosts the control thread, so its loss ends the run
// regardless.
func (e *Engine) liveAssign(ns int) []int {
	var live []int
	for i := 0; i < e.Sim.Nodes(); i++ {
		if i == 0 || !e.Sim.NodeFailed(i) {
			live = append(live, i)
		}
	}
	return RebuildAssignment(ns, live)
}

// PlanRebuild statically constructs the rebuilt schedule the recovery layer
// would produce for a crash of the given nodes at the atLaunch-th launch
// (1-based, counted per node — the same logical crash points
// realm.FaultPlan.LaunchCrashes injects). checkpointEvery follows
// Recovery.CheckpointEvery's convention (<= 0 means trip/4, at least 1).
//
// Returns nil when the crash is unrecoverable by construction: node 0 (the
// control thread) crashing, a node id out of range, or atLaunch == 0 (the
// 1-based convention realm.FaultPlan validation enforces).
func PlanRebuild(c *cr.Compiled, nodes int, crashed []int, atLaunch uint64, checkpointEvery int) *cr.RebuildSpec {
	if c == nil || nodes <= 0 || atLaunch == 0 {
		return nil
	}
	trip := c.Loop.Trip
	if checkpointEvery <= 0 {
		checkpointEvery = trip / 4
	}
	if checkpointEvery < 1 {
		checkpointEvery = 1
	}
	ns := c.Opts.NumShards
	dead := make(map[int]bool, len(crashed))
	for _, n := range crashed {
		if n <= 0 || n >= nodes {
			return nil
		}
		dead[n] = true
	}

	var live []int
	for i := 0; i < nodes; i++ {
		if i == 0 || !dead[i] {
			live = append(live, i)
		}
	}

	// The crash iteration: the crashed node dies at the issue of its
	// atLaunch-th task launch. Under the pre-crash placement (shard s on
	// node s*nodes/ns) the node issues one task per launch op per color it
	// owns each iteration, so atLaunch-1 completed launches put the crash
	// in iteration (atLaunch-1)/perIter. The resumable state is the last
	// committed checkpoint boundary at or before it.
	launchOps := 0
	for _, op := range c.Body {
		if op.Launch != nil {
			launchOps++
		}
	}
	resume := trip // min over crashed nodes below
	for _, n := range crashed {
		cols := 0
		for _, col := range c.Domain {
			if c.ShardOf[col]*nodes/ns == n {
				cols++
			}
		}
		perIter := launchOps * cols
		crashIter := 0
		if perIter > 0 {
			crashIter = int((atLaunch - 1)) / perIter
		}
		if crashIter > trip {
			crashIter = trip
		}
		if r := (crashIter / checkpointEvery) * checkpointEvery; r < resume {
			resume = r
		}
	}
	if resume >= trip && trip > 0 {
		// Checkpoints are only taken strictly before the final epoch; a
		// crash in the last epoch resumes from the boundary before it.
		resume = ((trip - 1) / checkpointEvery) * checkpointEvery
	}

	// restorePhase repopulates every used instance from the checkpoint.
	rs := &cr.RebuildSpec{
		Nodes:      nodes,
		Crashed:    append([]int(nil), crashed...),
		Assign:     RebuildAssignment(ns, live),
		ResumeIter: resume,
	}
	rs.Restored = make(map[*region.Partition][]bool, len(c.UsedParts))
	for _, part := range c.UsedParts {
		mask := make([]bool, len(c.Domain))
		for i := range mask {
			mask[i] = true
		}
		rs.Restored[part] = mask
	}
	return rs
}
