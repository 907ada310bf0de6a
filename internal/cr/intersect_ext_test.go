package cr_test

import (
	"slices"
	"testing"

	"repro/internal/cr"
	"repro/internal/harness"
	"repro/internal/intersect"
	"repro/internal/region"
)

// TestIntersectionCountsEveryCopy pins the exact counters across the
// per-Compile intersection memo: a partition pair that k copies share is
// intersected once, yet every copy carries the pair list a run of its own
// would have produced, and Timings.Candidates and Timings.Pairs count it k
// times. miniaero moves four fields between one partition pair.
func TestIntersectionCountsEveryCopy(t *testing.T) {
	for _, app := range harness.Apps() {
		prog, loop := app.BuildProgram(16)
		c, err := cr.Compile(prog, loop, cr.Options{NumShards: 16})
		if err != nil {
			t.Fatal(err)
		}
		copies := slices.Clone(c.InitCopies)
		for _, op := range c.Body {
			if op.Copy != nil {
				copies = append(copies, op.Copy)
			}
		}
		sharing := map[[2]*region.Partition]int{}
		wantCands, wantPairs, most := 0, 0, 0
		for _, cp := range copies {
			key := [2]*region.Partition{cp.Src, cp.Dst}
			sharing[key]++
			most = max(most, sharing[key])
			wantCands += len(intersect.Shallow(cp.Src, cp.Dst))
			// Every colour of the apps' partitions is launched, so the launch
			// domain filters nothing.
			want := intersect.Pairs(cp.Src, cp.Dst)
			wantPairs += len(want)
			same := slices.EqualFunc(cp.Pairs, want, func(a, b intersect.Pair) bool {
				return a.Src == b.Src && a.Dst == b.Dst && a.Overlap.String() == b.Overlap.String()
			})
			if !same {
				t.Errorf("%s: copy %d (%s) does not carry intersect.Pairs(%s, %s)", app.Name, cp.ID, cp, cp.Src.Name(), cp.Dst.Name())
			}
		}
		if app.Name == "miniaero" && most < 4 {
			t.Errorf("miniaero: at most %d copies share a partition pair, want 4: the memo is not exercised", most)
		}
		if c.Timings.Candidates != wantCands || c.Timings.Pairs != wantPairs {
			t.Errorf("%s: Timings count %d candidates and %d pairs, the copies' own sum is %d and %d",
				app.Name, c.Timings.Candidates, c.Timings.Pairs, wantCands, wantPairs)
		}
	}
}
