package verify

import (
	"fmt"

	"repro/internal/cr"
	"repro/internal/region"
)

// OpRef is one side of a finding's witness: which op touched the instance,
// where it sits in the unrolled program, and on which shard it runs.
type OpRef struct {
	// Iter is the unrolled iteration (-1 for pre-loop ops, the iteration
	// count for finalization).
	Iter int `json:"iter"`
	// Body is the index of the op in the compiled loop body (-1 for
	// initialization, 0 for finalization).
	Body int `json:"body"`
	// Pair is the copy pair index for copy ops, 0 for tasks.
	Pair int `json:"pair"`
	// Kind is "task", "copy", "init", "init-copy", or "final".
	Kind string `json:"kind"`
	// Label names the op: the launch label / task name, or the copy
	// description.
	Label string `json:"label,omitempty"`
	// Copy is the CopyOp ID for copy ops, -1 otherwise.
	Copy int `json:"copy"`
	// Shard issues the op; -1 for the control thread.
	Shard int `json:"shard"`
	// Color is the task's launch point or the copy pair's destination.
	Color string `json:"color"`
	// Write reports whether this side writes the conflicting elements.
	Write bool `json:"write"`
}

// Finding is one defect witness. Race findings ("unordered"/"misordered")
// describe a conflicting access pair the happens-before relation fails to
// cover; liveness findings ("cycle"/"never-triggered"/"phase-mismatch")
// describe a wait-for defect; certification findings ("dead-node-assignment"
// /"missing-restore"/"bad-rebuild") describe an invalid failover rebuild.
type Finding struct {
	// Kind is "unordered" (no happens-before path at all — a race),
	// "misordered" (ordered only against the sequential program order), or
	// one of the liveness/certification kinds above.
	Kind string `json:"kind"`
	// Instance names the physical instance both ops touch (race findings).
	Instance string `json:"instance"`
	// Fields are the names of the conflicting fields.
	Fields []string `json:"fields"`
	// Overlap is the conflicting element set; Elems its cardinality.
	Overlap    string `json:"overlap"`
	Elems      int64  `json:"elems"`
	CrossShard bool   `json:"cross_shard"`
	// A is the sequentially earlier op, B the later one. Liveness findings
	// reuse A/B for the blocked op and the sync it waits on.
	A OpRef `json:"a"`
	B OpRef `json:"b"`
	// Cycle is the wait-for cycle witness of a "cycle" finding: the ops on
	// the cycle, in wait order, first repeated last.
	Cycle []OpRef `json:"cycle,omitempty"`
	// Detail is a human-readable elaboration for non-race findings.
	Detail string `json:"detail,omitempty"`
}

// String renders the witness on one line.
func (f Finding) String() string {
	if f.Detail != "" {
		return fmt.Sprintf("%s: %s", f.Kind, f.Detail)
	}
	return fmt.Sprintf("%s: %s fields %v overlap %s (%d elems): %s vs %s",
		f.Kind, f.Instance, f.Fields, f.Overlap, f.Elems, f.A, f.B)
}

// String renders one side of a witness.
func (o OpRef) String() string {
	rw := "read"
	if o.Write {
		rw = "write"
	}
	return fmt.Sprintf("%s %q@%s iter=%d body=%d pair=%d shard=%d (%s)",
		o.Kind, o.Label, o.Color, o.Iter, o.Body, o.Pair, o.Shard, rw)
}

// finding renders the witness of one reported pair, and is the only place
// the complete intersection is computed: the elements and fields the two
// accesses share, both in the order of the lower-indexed access.
func (a *Analysis) finding(kind string, cf conflict) Finding {
	e, l := &a.accs[cf.earlier], &a.accs[cf.later]
	lo, hi := e, l
	if cf.later < cf.earlier {
		lo, hi = l, e
	}
	overlap := lo.space.Intersect(hi.space)
	inst, fields := a.instance(a.refs[e.inst], region.CommonFields(lo.fields, hi.fields))
	return Finding{
		Kind:       kind,
		Instance:   inst,
		Fields:     fields,
		Overlap:    overlap.String(),
		Elems:      overlap.Volume(),
		CrossShard: a.g.crossShard(e.n, l.n),
		A:          a.opRef(*e),
		B:          a.opRef(*l),
	}
}

// instance names the instance with the given key and the given fields of it.
func (a *Analysis) instance(key int32, fields []region.FieldID) (string, []string) {
	slot, ci := a.ix.Split(key)
	r, col := a.ix.Slots[slot], a.c.Domain[ci]
	fs := a.c.Prog.FieldSpaceOf(r.Part.Parent())
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = fs.Name(f)
	}
	if r.Launch == nil {
		return fmt.Sprintf("%s[%v]", r.Part.Name(), col), names
	}
	name := r.Launch.Label
	if name == "" {
		name = r.Launch.Task.Name
	}
	return fmt.Sprintf("reduce-temp(%s/%d)[%v]", name, r.Arg, col), names
}

func (a *Analysis) opRef(ac access) OpRef {
	nd := &a.g.nodes[ac.n]
	ref := OpRef{
		Iter:  int(nd.iter),
		Body:  int(nd.body),
		Pair:  int(nd.sub),
		Copy:  int(nd.copyID),
		Shard: int(nd.shard),
		Color: nd.color.String(),
		Write: ac.write,
	}
	switch nd.kind {
	case kInit:
		ref.Kind, ref.Label = "init", "instance initialization"
	case kTask:
		ref.Kind = "task"
		if l := a.c.Body[nd.body].Launch; l != nil {
			ref.Label = l.Label
			if ref.Label == "" {
				ref.Label = l.Task.Name
			}
		}
	case kInitCopy, kCopy, kWar, kDone, kBarrier:
		ref.Kind = copyKindNames[nd.kind]
		if cp := copyByID(a.c, nd.copyID); cp != nil {
			ref.Label = cp.String()
		}
	case kFinal:
		ref.Kind, ref.Label = "final", "finalization read-back"
	case kLoopStart, kLoopEnd:
		ref.Kind = "phase"
	default:
		ref.Kind = "event"
	}
	return ref
}

var copyKindNames = map[nodeKind]string{
	kInitCopy: "init-copy", kCopy: "copy", kWar: "war", kDone: "done", kBarrier: "barrier",
}

func copyByID(c *cr.Compiled, id int32) *cr.CopyOp {
	for _, op := range c.Body {
		if op.Copy != nil && op.Copy.ID == int(id) {
			return op.Copy
		}
	}
	for _, cp := range c.InitCopies {
		if cp.ID == int(id) {
			return cp
		}
	}
	return nil
}
