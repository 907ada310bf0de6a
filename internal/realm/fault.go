package realm

import (
	"fmt"
	"math"
	"sort"
)

// This file is the deterministic fault-injection layer of the DES. All
// randomness is derived from FaultPlan.Seed through the splitmix finalizer
// and a per-sim draw counter, and every fault decision is made at a point
// that is itself deterministic (a scheduled crash time, a copy issue, a
// task start), so two runs with the same plan produce byte-identical
// schedules, stats, and traces. A fault-free run consumes no randomness and
// takes none of these code paths.

// NodeCrash is a whole-node fail-stop failure at a virtual time.
type NodeCrash struct {
	Node int
	At   Time
}

// LaunchCrash is a whole-node fail-stop failure at a logical point: the
// node dies at the issue of its AtLaunch-th launch (1-based, counted per
// target node across the whole run). Unlike NodeCrash it names no clock,
// so every backend can honor it — the DES counts launches as it issues
// them, the native machine matches its per-node atomic launch counters —
// and "node 2 dies at its 37th launch" means the same schedule point on
// both. The AtLaunch-th launch itself is lost (the crash precedes it).
type LaunchCrash struct {
	Node     int
	AtLaunch uint64
}

// FaultPlan describes the faults to inject into a simulation. The zero
// value injects nothing. Rates are probabilities per opportunity (per
// remote message for DropRate/DupRate, per work item for StragglerRate)
// except CrashRate, which is a Poisson rate in crashes per simulated
// second.
type FaultPlan struct {
	Seed uint64 // root of all fault randomness

	Crashes       []NodeCrash   // explicit fail-stop crashes at fixed virtual times (DES-only)
	LaunchCrashes []LaunchCrash // explicit fail-stop crashes at logical points (all backends)
	CrashRate     float64       // additional random crashes per simulated second
	CrashNode0    bool          // allow random crashes to hit node 0 (the head node)

	DropRate          float64 // per-message probability of a drop + retransmit
	RetransmitTimeout Time    // redelivery delay per drop (default 20x NetLatency)
	DupRate           float64 // per-message probability of a duplicate send

	StragglerRate   float64 // per-work-item probability of a slowdown
	StragglerFactor float64 // duration multiplier for straggling items (> 1)
}

// Validate checks the plan against the machine it will be injected into.
// Every range check is written so that NaN fails it, and the two values
// that scale a quantity (CrashRate, StragglerFactor) must be finite.
func (fp *FaultPlan) Validate(cfg Config) error {
	switch {
	case !(fp.CrashRate >= 0) || math.IsInf(fp.CrashRate, 1):
		return fmt.Errorf("realm: CrashRate %v must be finite and non-negative", fp.CrashRate)
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
	for _, c := range fp.Crashes {
		if c.Node < 0 || c.Node >= cfg.Nodes {
			return fmt.Errorf("realm: crash targets node %d of a %d-node machine", c.Node, cfg.Nodes)
		}
		if c.At < 0 {
			return fmt.Errorf("realm: crash of node %d at negative time %d", c.Node, c.At)
		}
	}
	for _, c := range fp.LaunchCrashes {
		if c.Node < 0 || c.Node >= cfg.Nodes {
			return fmt.Errorf("realm: launch crash targets node %d of a %d-node machine", c.Node, cfg.Nodes)
		}
		if c.AtLaunch == 0 {
			return fmt.Errorf("realm: launch crash of node %d at launch 0 (AtLaunch is 1-based)", c.Node)
		}
	}
	return nil
}

// Prepare readies the plan for installation on a machine of configuration
// cfg — the one way either backend installs a plan: it validates it, fills
// in the retransmit default (20x NetLatency, 30us on a zero-latency
// machine), and returns LaunchCrashes folded into each node's earliest
// crash point (several entries for one node reduce to the first that would
// fire; nil when there are none, so the per-launch hot path stays a nil
// check).
func (fp *FaultPlan) Prepare(cfg Config) (map[int]uint64, error) {
	if err := fp.Validate(cfg); err != nil {
		return nil, err
	}
	if fp.RetransmitTimeout <= 0 {
		fp.RetransmitTimeout = 20 * cfg.NetLatency
		if fp.RetransmitTimeout <= 0 {
			fp.RetransmitTimeout = Microseconds(30)
		}
	}
	if len(fp.LaunchCrashes) == 0 {
		return nil, nil
	}
	at := make(map[int]uint64, len(fp.LaunchCrashes))
	for _, c := range fp.LaunchCrashes {
		if prev, ok := at[c.Node]; !ok || c.AtLaunch < prev {
			at[c.Node] = c.AtLaunch
		}
	}
	return at, nil
}

// FaultStats counts the faults actually injected during a run.
type FaultStats struct {
	Crashes    int
	Drops      int64
	Dups       int64
	Stragglers int64
}

// InjectFaults installs a fault plan on the simulator. It must be called
// before Run and at most once. The plan is copied; later mutation of the
// caller's value has no effect.
func (s *Sim) InjectFaults(fp FaultPlan) error {
	if s.faults != nil {
		return fmt.Errorf("realm: a fault plan is already installed")
	}
	at, err := fp.Prepare(s.cfg)
	if err != nil {
		return err
	}
	s.faults = &fp
	if at != nil {
		s.launchCrashAt = at
		s.launchSeq = make([]uint64, s.cfg.Nodes)
	}
	// Sort planned crashes by time so equal-time behavior does not depend
	// on the caller's slice order.
	crashes := append([]NodeCrash(nil), fp.Crashes...)
	sort.SliceStable(crashes, func(i, j int) bool { return crashes[i].At < crashes[j].At })
	for _, c := range crashes {
		node := c.Node
		s.atWeak(c.At, func() { s.crashNode(node) })
	}
	if fp.CrashRate > 0 {
		s.scheduleNextCrash()
	}
	return nil
}

// FaultStats returns the counters of faults injected so far.
func (s *Sim) FaultStats() FaultStats { return s.faultStats }

// Crashes returns the node crashes that actually occurred, in time order.
func (s *Sim) Crashes() []NodeCrash {
	return append([]NodeCrash(nil), s.crashLog...)
}

// Fault-draw streams for backends that cannot consult a single global draw
// counter. The native machine's fault points are concurrent, so its draws
// are keyed by logical position — (stream kind, node, per-node sequence
// number) — rather than by a global sequence.
const (
	FaultStreamCrash     uint64 = 1 // per-launch crash rolls, keyed by target node
	FaultStreamCopy      uint64 = 2 // per-copy duplicate rolls, keyed by source node
	FaultStreamStraggler uint64 = 3 // per-launch straggler rolls, keyed by target node
	FaultStreamDrop      uint64 = 4 // per-attempt drop rolls, keyed by source node
)

// FaultDraw returns a deterministic uniform [0, 1) draw for the seq-th
// fault decision of the given stream on the given node under seed: three
// chained splitmix finalizations, so nearby (stream, node, seq) triples
// decorrelate. Shared by every backend whose fault points are identified by
// logical position instead of a global counter.
func FaultDraw(seed, stream, node, seq uint64) float64 {
	x := splitmix(seed + stream*0x9e3779b97f4a7c15)
	x = splitmix(x + node*0x9e3779b97f4a7c15)
	x = splitmix(x + seq*0x9e3779b97f4a7c15)
	return float64(x>>11) / (1 << 53)
}

// faultRand draws the next 64 deterministic pseudo-random bits of the
// installed plan.
func (s *Sim) faultRand() uint64 {
	s.faultSeq++
	return splitmix(s.faults.Seed + s.faultSeq*0x9e3779b97f4a7c15)
}

// faultRoll returns true with probability p, consuming one draw iff a plan
// is installed and p > 0 (so rate-zero faults cost nothing and perturb no
// other fault's stream).
func (s *Sim) faultRoll(p float64) bool {
	if s.faults == nil || p <= 0 {
		return false
	}
	return float64(s.faultRand()>>11)/(1<<53) < p
}

// scheduleNextCrash arms the Poisson crash process: exponential
// inter-arrival gaps at CrashRate crashes per simulated second, each firing
// as a weak event (pending crashes never keep the simulation alive).
func (s *Sim) scheduleNextCrash() {
	rate := s.faults.CrashRate
	u := (float64(s.faultRand()>>11) + 1) / (1 << 53) // uniform in (0, 1]
	gap := Time(-math.Log(u)*1e9/rate) + 1
	s.atWeak(s.now+gap, func() {
		victims := s.crashableNodes()
		if len(victims) == 0 {
			return // everything that may crash already has
		}
		v := victims[int(s.faultRand()%uint64(len(victims)))]
		s.crashNode(v)
		s.scheduleNextCrash()
	})
}

// crashableNodes lists live nodes eligible for a random crash. Node 0 is
// the head node — it hosts the control thread and stable storage — and is
// spared unless the plan explicitly opts in.
func (s *Sim) crashableNodes() []int {
	var out []int
	for i, n := range s.nodes {
		if n.failed || (i == 0 && !s.faults.CrashNode0) {
			continue
		}
		out = append(out, i)
	}
	return out
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
	s.faultStats.Crashes++
	s.crashLog = append(s.crashLog, NodeCrash{Node: id, At: s.now})
	if s.tracer != nil {
		s.tracer.crash(id, s.now)
	}
	if n.failEv == NoEvent {
		n.failEv = s.NewUserEvent()
	}
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
