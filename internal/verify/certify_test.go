package verify_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/verify"
)

// namedPlan is one app's compiled loop.
type namedPlan struct {
	name string
	c    *cr.Compiled
}

// certifyApps compiles pennant and circuit (at their witness sizes, 8
// pieces) for the Certify tests: the two apps whose p2p schedules the
// prune shrinks.
func certifyApps(t *testing.T, o cr.Options) []namedPlan {
	t.Helper()
	var out []namedPlan
	for i, app := range evalApps {
		if app.name == "pennant" || app.name == "circuit" {
			prog, loop := witnessProgram(i, 8)
			out = append(out, namedPlan{app.name, compileApp(t, prog, loop, o)})
		}
	}
	return out
}

func passes(s *verify.Suite) []string {
	var out []string
	for _, r := range s.Reports {
		out = append(out, r.Pass)
	}
	return out
}

// TestCertifyComposesPasses: Certify runs exactly [agg?, prune?, races,
// liveness, spec], all clean, and with prune its races report describes the
// pruned schedule — the graph the executor runs, smaller than the unpruned
// one — not a re-derivation of the unpruned plan. Its races and liveness
// reports are byte-identical to those of a fresh Analyze of that schedule.
func TestCertifyComposesPasses(t *testing.T) {
	for _, sync := range syncModes {
		for _, agg := range []bool{false, true} {
			for _, prune := range []bool{false, true} {
				for _, p := range certifyApps(t, cr.Options{NumShards: 4, Sync: sync, Agg: agg}) {
					c := p.c
					t.Run(fmt.Sprintf("%s/%v/agg=%v/prune=%v", p.name, sync, agg, prune), func(t *testing.T) {
						suite, err := verify.Certify(c, prune)
						if err != nil {
							t.Fatal(err)
						}
						var want []string
						if agg {
							want = append(want, "agg")
						}
						if prune {
							want = append(want, "prune")
						}
						want = append(want, "races", "liveness", "spec")
						if got := passes(suite); !slices.Equal(got, want) {
							t.Fatalf("passes %v, want %v", got, want)
						}
						for _, r := range suite.Reports {
							for _, f := range r.Findings {
								t.Errorf("%s: %s", r.Pass, f)
							}
						}
						// Under prune the races and liveness reports come from
						// PlanPrune's last analysis.
						fresh, err := verify.Analyze(c)
						if err != nil {
							t.Fatal(err)
						}
						for i, want := range []*verify.Report{fresh.Check(), fresh.CheckLiveness()} {
							got, _ := json.Marshal(suite.Reports[len(suite.Reports)-3+i])
							if w, _ := json.Marshal(want); !bytes.Equal(got, w) {
								t.Errorf("%s report differs from a fresh Analyze's:\n got  %s\n want %s", want.Pass, got, w)
							}
						}
						if !prune {
							if c.Prune != nil {
								t.Error("Certify attached a prune it was not asked for")
							}
							return
						}
						if c.Prune == nil {
							t.Fatal("clean prune report but no prune attached")
						}
						races := suite.Reports[len(want)-3].Stats
						pruned, err := verify.AnalyzePruned(c, c.Prune)
						if err != nil {
							t.Fatal(err)
						}
						unpruned, err := verify.AnalyzePruned(c, nil)
						if err != nil {
							t.Fatal(err)
						}
						if e := pruned.Check().Stats.Edges; races.Edges != e {
							t.Errorf("races report has %d edges, the pruned graph %d", races.Edges, e)
						}
						if e := unpruned.Check().Stats.Edges; races.Edges >= e {
							t.Errorf("races report has %d edges, not below the unpruned graph's %d", races.Edges, e)
						}
					})
				}
			}
		}
	}
}

// TestCertifySurfacesCorruptTables: a corrupted specialization table and a
// corrupted aggregation table each come back as a finding of Certify's
// suite, in the pass that owns the table.
func TestCertifySurfacesCorruptTables(t *testing.T) {
	for _, sync := range syncModes {
		for _, tc := range []struct {
			name, pass, kind string
			corrupt          func(c *cr.Compiled) bool
		}{
			{"spec color index", "spec", "spec", func(c *cr.Compiled) bool {
				c.ColorIdx[c.Owned[1][0]]++
				return true
			}},
			{"agg member order", "agg", "agg-table", func(c *cr.Compiled) bool {
				for _, x := range c.Exchanges {
					for _, steps := range x.Steps {
						for _, st := range steps {
							if m := st.Members; len(m) > 1 {
								m[0], m[1] = m[1], m[0]
								return true
							}
						}
					}
				}
				return false
			}},
		} {
			for _, p := range certifyApps(t, cr.Options{NumShards: 4, Sync: sync, Agg: true}) {
				c := p.c
				t.Run(fmt.Sprintf("%s/%s/%v", tc.name, p.name, sync), func(t *testing.T) {
					if !tc.corrupt(c) {
						t.Fatal("the plan has no table of that shape to corrupt")
					}
					suite, err := verify.Certify(c, false)
					if err != nil {
						t.Fatal(err)
					}
					if suite.OK() {
						t.Fatal("Certify passed a corrupted table")
					}
					for _, r := range suite.Reports {
						if r.Pass != tc.pass {
							continue
						}
						for _, f := range r.Findings {
							if f.Kind == tc.kind && strings.Contains(f.Detail, "diverge") {
								return
							}
						}
						t.Fatalf("%s report has no %s finding: %v", tc.pass, tc.kind, r.Findings)
					}
					t.Fatalf("no %s report in %v", tc.pass, passes(suite))
				})
			}
		}
	}
}
