package realm

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// This file is the deterministic fault model shared by every backend.
// Every fault is decided by a pure function of the plan and a logical
// position — (seed, node, the node's per-node operation index) — never by a
// clock or a global draw counter: LaunchFault decides a node's k-th launch,
// CopyFault a source node's k-th remote copy, and CopyCrash a node's k-th
// copy sent or received. One FaultInjector per machine advances the
// per-node counters at issue time and applies the decisions; a backend
// keeps only its way of charging the time a fault costs (virtual time on
// the DES, real sleeps on native), so one plan injects the same faults on
// both wherever the backends issue a node's operations in the same order.
// A fault-free run consumes no randomness and takes none of these code
// paths.

// NodeCrash reports a whole-node fail-stop failure and the time it
// happened (virtual on the DES, wall-clock on native).
type NodeCrash struct {
	Node int
	At   Time
}

// LaunchCrash is a whole-node fail-stop failure at a logical point: the
// node dies at the issue of its AtLaunch-th launch (1-based, counted per
// target node across the whole run). It names no clock, so "node 2 dies at
// its 37th launch" means the same schedule point on every backend. The
// AtLaunch-th launch itself is lost (the crash precedes it).
type LaunchCrash struct {
	Node     int
	AtLaunch uint64
}

// CopyCrash is LaunchCrash for copies: the node dies at the issue of the
// AtCopy-th copy it sends or receives (1-based; a node-local copy counts
// once), and that copy is lost.
// Checkpoint capture, restore and trace shipping issue only copies, so
// these are the points that can land a crash inside them.
type CopyCrash struct {
	Node   int
	AtCopy uint64
}

// FaultPlan describes the faults to inject into a run. The zero value
// injects nothing. Every rate is a probability per opportunity: per launch
// for CrashRate and StragglerRate, per remote copy for DropRate (per
// attempt) and DupRate.
type FaultPlan struct {
	Seed uint64 // root of all fault randomness

	LaunchCrashes []LaunchCrash // explicit fail-stop crashes at launch issues
	CopyCrashes   []CopyCrash   // explicit fail-stop crashes at copy issues
	CrashRate     float64       // per-launch probability of a random crash of its node
	CrashNode0    bool          // allow random crashes to hit node 0 (the head node)

	DropRate          float64 // per-attempt probability of a drop + retransmit
	RetransmitTimeout Time    // redelivery delay per drop (default 20x NetLatency)
	DupRate           float64 // per-message probability of a duplicate send

	StragglerRate   float64 // per-launch probability of a slowdown
	StragglerFactor float64 // duration multiplier for straggling launches (> 1)
}

// Validate checks the plan against the machine it will be injected into.
// Every range check is written so that NaN fails it.
func (fp *FaultPlan) Validate(cfg Config) error {
	switch {
	case !(fp.CrashRate >= 0 && fp.CrashRate <= 1):
		return fmt.Errorf("realm: CrashRate %v outside [0, 1] (a per-launch crash probability)", fp.CrashRate)
	case !(fp.DropRate >= 0 && fp.DropRate <= 0.9):
		return fmt.Errorf("realm: DropRate %v outside [0, 0.9]", fp.DropRate)
	case !(fp.DupRate >= 0 && fp.DupRate <= 1):
		return fmt.Errorf("realm: DupRate %v outside [0, 1]", fp.DupRate)
	case !(fp.StragglerRate >= 0 && fp.StragglerRate <= 1):
		return fmt.Errorf("realm: StragglerRate %v outside [0, 1]", fp.StragglerRate)
	case math.IsNaN(fp.StragglerFactor) || math.IsInf(fp.StragglerFactor, 0):
		return fmt.Errorf("realm: StragglerFactor %v is not finite", fp.StragglerFactor)
	case fp.StragglerRate > 0 && !(fp.StragglerFactor > 1):
		return fmt.Errorf("realm: StragglerFactor must exceed 1 (got %v)", fp.StragglerFactor)
	case fp.RetransmitTimeout < 0:
		return fmt.Errorf("realm: negative RetransmitTimeout %d", fp.RetransmitTimeout)
	}
	for _, c := range fp.LaunchCrashes {
		if err := checkCrashPoint("launch", c.Node, c.AtLaunch, cfg); err != nil {
			return err
		}
	}
	for _, c := range fp.CopyCrashes {
		if err := checkCrashPoint("copy", c.Node, c.AtCopy, cfg); err != nil {
			return err
		}
	}
	return nil
}

func checkCrashPoint(kind string, node int, at uint64, cfg Config) error {
	if node < 0 || node >= cfg.Nodes {
		return fmt.Errorf("realm: %s crash targets node %d of a %d-node machine", kind, node, cfg.Nodes)
	}
	if at == 0 {
		return fmt.Errorf("realm: %s crash of node %d at %s 0 (the index is 1-based)", kind, node, kind)
	}
	return nil
}

// maxRetransmits bounds the drops of one copy: after this many consecutive
// lost attempts the transport delivers anyway, so a copy's delay is
// bounded on every backend.
const maxRetransmits = 8

// Draw streams: each kind of decision draws from its own stream, so a rate
// set to zero perturbs no other kind's draws.
const (
	streamCrash     uint64 = 1 // per-launch crash draws, keyed by target node
	streamDup       uint64 = 2 // per-copy duplicate draws, keyed by source node
	streamStraggler uint64 = 3 // per-launch straggler draws, keyed by target node
	streamDrop      uint64 = 4 // per-attempt drop draws, keyed by source node
)

// faultDraw returns a deterministic uniform [0, 1) draw for the seq-th
// decision of the given stream on the given node under seed: three chained
// splitmix finalizations, so nearby (stream, node, seq) triples decorrelate.
func faultDraw(seed, stream, node, seq uint64) float64 {
	x := splitmix(seed + stream*0x9e3779b97f4a7c15)
	x = splitmix(x + node*0x9e3779b97f4a7c15)
	x = splitmix(x + seq*0x9e3779b97f4a7c15)
	return float64(x>>11) / (1 << 53)
}

// LaunchFault decides the faults of node's k-th launch (1-based, counting
// every launch issued to the node). crash: the node fail-stops at the
// issue and the launch is lost — a LaunchCrash names this point, or the
// CrashRate draw fires (never on node 0 unless CrashNode0). straggle: the
// launch runs StragglerFactor times its modeled duration.
func (fp *FaultPlan) LaunchFault(node int, k uint64) (crash, straggle bool) {
	for _, c := range fp.LaunchCrashes {
		crash = crash || c.Node == node && c.AtLaunch == k
	}
	if fp.CrashRate > 0 && (node != 0 || fp.CrashNode0) {
		crash = crash || faultDraw(fp.Seed, streamCrash, uint64(node), k) < fp.CrashRate
	}
	straggle = fp.StragglerRate > 0 && faultDraw(fp.Seed, streamStraggler, uint64(node), k) < fp.StragglerRate
	return crash, straggle
}

// CopyFault decides the faults of src's k-th remote copy (1-based,
// counting every copy issued from src to another node): dup, the payload
// crosses the wire twice; drops, how many attempts are lost before one
// arrives (at most maxRetransmits).
func (fp *FaultPlan) CopyFault(src int, k uint64) (dup bool, drops int) {
	dup = fp.DupRate > 0 && faultDraw(fp.Seed, streamDup, uint64(src), k) < fp.DupRate
	if fp.DropRate > 0 {
		for drops < maxRetransmits && faultDraw(fp.Seed, streamDrop, uint64(src), k*maxRetransmits+uint64(drops)) < fp.DropRate {
			drops++
		}
	}
	return dup, drops
}

// CopyCrash reports whether node fail-stops at the issue of the k-th copy
// it sends or receives (1-based): whether a CopyCrash names that point.
func (fp *FaultPlan) CopyCrash(node int, k uint64) bool {
	for _, c := range fp.CopyCrashes {
		if c.Node == node && c.AtCopy == k {
			return true
		}
	}
	return false
}

// FaultStats counts the faults actually injected during a run. Each is
// counted at the issue of the operation it hits, and only while the
// operation's nodes are alive.
type FaultStats struct {
	Crashes    int
	Drops      int64
	Dups       int64
	Stragglers int64
}

// FaultInjector applies an installed plan to one machine's operations at
// their issue. It keeps the per-node issue counters the plan's decisions
// are keyed by and the counts of what it injected, and it holds the rules
// of application every backend shares: a crash point fail-stops its node
// (the operation is then lost), a node-local copy touches its node once,
// and drops, duplicates and stragglers count only while the operation's
// nodes are alive. The backend supplies how to tell that a node is down
// and how to crash one, and charges what a fault costs its own way. Safe
// for concurrent use: every counter is an atomic.
type FaultInjector struct {
	plan  FaultPlan
	down  func(node int) bool
	crash func(node int)

	launchSeq []atomic.Uint64 // launches issued, per target node
	copySeq   []atomic.Uint64 // remote copies issued, per source node
	touchSeq  []atomic.Uint64 // copies sent or received, per node

	drops, dups, stragglers atomic.Int64
}

// NewFaultInjector installs fp on a machine of configuration cfg whose
// nodes down reports failed and crash fail-stops. It validates the plan
// and fills in the retransmit default (20x NetLatency, 30us on a
// zero-latency machine). The plan is copied; later mutation of the
// caller's value has no effect.
func NewFaultInjector(fp FaultPlan, cfg Config, down func(node int) bool, crash func(node int)) (*FaultInjector, error) {
	if err := fp.Validate(cfg); err != nil {
		return nil, err
	}
	if fp.RetransmitTimeout <= 0 {
		fp.RetransmitTimeout = 20 * cfg.NetLatency
		if fp.RetransmitTimeout <= 0 {
			fp.RetransmitTimeout = Microseconds(30)
		}
	}
	return &FaultInjector{plan: fp, down: down, crash: crash,
		launchSeq: make([]atomic.Uint64, cfg.Nodes),
		copySeq:   make([]atomic.Uint64, cfg.Nodes),
		touchSeq:  make([]atomic.Uint64, cfg.Nodes),
	}, nil
}

// RetransmitTimeout is the plan's redelivery delay per drop.
func (f *FaultInjector) RetransmitTimeout() Time { return f.plan.RetransmitTimeout }

// Launch applies the plan to a launch of dur on node at its issue and
// returns the duration to charge: the node's launch counter advances, a
// crash fail-stops the node (the launch is then lost), and a straggler on
// a live node scales dur by the plan's StragglerFactor.
func (f *FaultInjector) Launch(node int, dur Time) Time {
	crash, straggle := f.plan.LaunchFault(node, f.launchSeq[node].Add(1))
	if crash {
		f.crash(node)
	}
	if straggle && dur > 0 && !f.down(node) {
		f.stragglers.Add(1)
		dur = Time(float64(dur) * f.plan.StragglerFactor)
	}
	return dur
}

// Copy applies the plan to a copy from src to dst at its issue: each
// endpoint's copy counter advances (a copy-indexed crash fail-stops it,
// and the copy is then lost), and a remote copy between live nodes draws
// its duplicate and drops from src's remote-copy counter.
func (f *FaultInjector) Copy(src, dst int) (dup bool, drops int) {
	f.touch(src)
	if src == dst {
		return false, 0
	}
	f.touch(dst)
	k := f.copySeq[src].Add(1)
	if f.down(src) || f.down(dst) {
		return false, 0
	}
	dup, drops = f.plan.CopyFault(src, k)
	if dup {
		f.dups.Add(1)
	}
	f.drops.Add(int64(drops))
	return dup, drops
}

func (f *FaultInjector) touch(node int) {
	if f.plan.CopyCrash(node, f.touchSeq[node].Add(1)) {
		f.crash(node)
	}
}

// Stats returns the faults injected so far, with the backend's count of
// the node crashes that occurred. A nil injector has injected none.
func (f *FaultInjector) Stats(crashes int) FaultStats {
	st := FaultStats{Crashes: crashes}
	if f != nil {
		st.Drops, st.Dups, st.Stragglers = f.drops.Load(), f.dups.Load(), f.stragglers.Load()
	}
	return st
}

// InjectFaults installs a fault plan on the simulator. It must be called
// before Run and at most once.
func (s *Sim) InjectFaults(fp FaultPlan) error {
	if s.faults != nil {
		return fmt.Errorf("realm: a fault plan is already installed")
	}
	f, err := NewFaultInjector(fp, s.cfg, s.NodeFailed, s.crashNode)
	if err == nil {
		s.faults = f
	}
	return err
}

// FaultStats returns the counters of faults injected so far.
func (s *Sim) FaultStats() FaultStats { return s.faults.Stats(len(s.crashLog)) }

// Crashes returns the node crashes that actually occurred, in time order.
func (s *Sim) Crashes() []NodeCrash {
	return append([]NodeCrash(nil), s.crashLog...)
}

// crashNode fail-stops a node at the current virtual time: all threads on
// it are killed (in spawn order, for determinism), in-flight work and
// traffic touching it is lost, and its FailEvent fires. Crashing a dead
// node is a no-op.
func (s *Sim) crashNode(id int) {
	n := s.nodes[id]
	if n.failed {
		return
	}
	n.failed = true
	s.crashLog = append(s.crashLog, NodeCrash{Node: id, At: s.now})
	s.Trigger(n.failEv)
	var ts []*Thread
	for t := range s.liveThreads {
		if t.proc.node == n {
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	for _, t := range ts {
		s.KillAgent(t)
	}
}
