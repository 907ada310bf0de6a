// Package verify is a static race/synchronization verifier for compiled
// SPMD programs: it checks, without executing anything, that the copies and
// point-to-point synchronization (or barriers) the cr compiler inserts
// order every pair of conflicting region accesses the way the sequential
// semantics does.
//
// The paper's central correctness claim is that control replication makes
// the SPMD shards observationally equivalent to the sequential control
// thread. The executors check that dynamically (goldens, bitwise equality
// against the sequential engine); this package turns it into a statically
// checkable compiler invariant:
//
//  1. Conflict enumeration: every physical instance (partition subregion,
//     or reduce temporary) is accessed by task launches, inserted copies,
//     initialization, and finalization. Two accesses conflict when their
//     field sets intersect, their element index spaces intersect (the same
//     geometry machinery the compiler's own interference analysis uses),
//     and at least one writes. Reduction applications count as writes:
//     floating-point folds are ordered by the sequential semantics, so
//     their relative order must be fixed even though they commute
//     algebraically.
//
//  2. Happens-before construction: a symbolic replay of the SPMD
//     executor's issue loop over two unrolled loop iterations builds the
//     event DAG the shards would build — local dependence edges from the
//     per-instance lastWrite/readers tables, the per-pair war/done
//     point-to-point sync events, reduction chain edges, the two global
//     barriers per copy in the ablation lowering, and the phase edges
//     around initialization and finalization. Run-ahead window edges are
//     deliberately NOT included: the schedule must be correct under
//     unbounded deferred execution, not rescued by the window.
//
//  3. Checking: every conflicting pair must be connected by a
//     happens-before path in the direction of the sequential program
//     order. A pair with no path is reported as "unordered" (a race); a
//     pair ordered only backwards is "misordered" (sequentially
//     inequivalent). Witnesses carry the two ops, their iteration offsets,
//     shard pair, and the exact region/field intersection.
//
// Two unrolled iterations suffice in steady state: the compiled body is
// structurally identical every iteration, so any conflict at distance >= 2
// iterations is covered by a transitive chain of distance <= 1 conflicts
// through the intervening accesses of the same instance.
//
// Sync edges are labeled so the mutation harness (mutate.go) can model "the
// compiler forgot one sync" as a Mutation: Mutations deletes each transfer's
// synchronization in turn, exchange phase by exchange phase, in plain and
// aggregated plans alike, and the checker must flag the newly broken pairs
// with findings the mutation Covers — a soundness check on the checker.
package verify

import (
	"cmp"
	"errors"
	"slices"
	"strings"

	"repro/internal/cr"
)

// Analysis is the reusable result of building the conflict set and the
// happens-before graph for one compiled loop. Check answers queries
// against it, optionally with sync edges deleted. Check with a drop set and
// CheckLivenessMutated fill a buffer the Analysis keeps: one at a time.
type Analysis struct {
	c            *cr.Compiled
	ix           *cr.Index
	g            *graph
	accs         []access
	refs         []int32 // instID -> instance key
	conflicts    chunks[conflict]
	insts, cross int // instances with an access; conflicts across two shards
	mutated      successors
}

// Stats summarizes the size of the verification problem.
type Stats struct {
	Nodes      int `json:"nodes"`
	Edges      int `json:"edges"`
	Instances  int `json:"instances"`
	Accesses   int `json:"accesses"`
	Conflicts  int `json:"conflicts"`
	CrossShard int `json:"cross_shard_conflicts"`
	Iters      int `json:"unrolled_iters"`
}

// Report is the outcome of one verification pass. Every pass of the
// certifier — aggregation, pruning, race checking, liveness, spec checking,
// recovery certification — emits this one schema, and the CLIs
// (`crc -verify-json`, `weakscale -verify-json`) serialize Certify's Suite
// of them.
type Report struct {
	// Pass names the certification pass that produced the report: "agg",
	// "prune", "races", "liveness", "spec", or "recovery-cert".
	Pass     string    `json:"pass,omitempty"`
	Findings []Finding `json:"findings"`
	Stats    Stats     `json:"stats"`
	// Counters carries pass-specific tallies (e.g. the prune pass's
	// pruned_edges / pruned_init_copies).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// OK reports whether the pass found no defects.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Suite aggregates the reports of one certification run (Certify); the
// CLIs emit it as JSON and exit 2 when OK is false.
type Suite struct {
	Reports []*Report `json:"reports"`
}

// OK reports whether every pass passed.
func (s *Suite) OK() bool {
	for _, r := range s.Reports {
		if !r.OK() {
			return false
		}
	}
	return true
}

// NumFindings totals the findings across passes.
func (s *Suite) NumFindings() int {
	n := 0
	for _, r := range s.Reports {
		n += len(r.Findings)
	}
	return n
}

// errNilLoop is every entry point's answer to a nil compiled loop.
var errNilLoop = errors.New("verify: nil compiled loop")

// Analyze builds the conflict set and happens-before graph for a compiled
// loop. The same Analysis can serve many Check calls (the mutation harness
// re-checks with edges dropped without rebuilding).
func Analyze(c *cr.Compiled) (*Analysis, error) {
	p, err := planOf(c)
	if err != nil {
		return nil, err
	}
	return p.base, nil
}

// Check verifies every conflicting pair against the happens-before
// relation, treating edges whose label is in drop as deleted (everywhere
// they occur, i.e. in every unrolled iteration — the static analogue of
// the compiler never having inserted that synchronization).
func (a *Analysis) Check(drop ...EdgeID) *Report { return a.check(&reachability{}, drop) }

// check is Check with the closure computed into reach, whose slab it reuses.
func (a *Analysis) check(reach *reachability, drop []EdgeID) *Report {
	succ := &a.g.succ
	if len(drop) > 0 {
		dropped := make(map[EdgeID]bool, len(drop))
		for _, d := range drop {
			dropped[d] = true
		}
		succ = a.mutated.fill(a.g, dropped, nil)
	}
	rep := &Report{Pass: "races", Findings: []Finding{}, Stats: Stats{Nodes: len(a.g.nodes), Edges: a.g.edges.n,
		Instances: a.insts, Accesses: len(a.accs), Conflicts: a.conflicts.n, CrossShard: a.cross, Iters: a.g.iters}}
	if !reach.closure(succ) {
		// Corrupted exchange tables can make the schedule wait on itself; no
		// order is defined on a cyclic graph, so the deadlock is the finding.
		rep.Findings = append(rep.Findings, a.cycleFinding(succ, reach.rank))
		return rep
	}
	a.conflicts.each(func(cf *conflict) {
		e, l := a.accs[cf.earlier].n, a.accs[cf.later].n
		if reach.reaches(e, l) {
			return
		}
		kind := "unordered"
		if reach.reaches(l, e) {
			kind = "misordered"
		}
		rep.Findings = append(rep.Findings, a.finding(kind, *cf))
	})
	sortFindings(rep.Findings)
	return rep
}

// ordered is Check reduced to its verdict: it closes the graph into reach
// (reusing its slab), asks whether every pair is ordered the sequential
// way, and renders no witness.
func (a *Analysis) ordered(reach *reachability) bool {
	if !reach.closure(&a.g.succ) {
		return false
	}
	ok := true
	a.conflicts.each(func(cf *conflict) {
		ok = ok && reach.reaches(a.accs[cf.earlier].n, a.accs[cf.later].n)
	})
	return ok
}

// Verify analyzes and checks a compiled loop in one call.
func Verify(c *cr.Compiled) (*Report, error) {
	a, err := Analyze(c)
	if err != nil {
		return nil, err
	}
	return a.Check(), nil
}

func sortFindings(fs []Finding) {
	slices.SortStableFunc(fs, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Instance, b.Instance), cmp.Compare(a.A.Iter, b.A.Iter),
			cmp.Compare(a.A.Body, b.A.Body), cmp.Compare(a.B.Iter, b.B.Iter), cmp.Compare(a.B.Body, b.B.Body))
	})
}
