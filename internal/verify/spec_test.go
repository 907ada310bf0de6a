package verify

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cr"
	"repro/internal/progtest"
)

// TestCheckSpecAccepts: the compiler's specialization tables pass the
// independent recomputation for the example programs, equal and ragged
// owned blocks alike.
func TestCheckSpecAccepts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, nt  int64
		shards int
	}{
		{"uniform", 48, 8, 4},
		{"ragged", 42, 7, 3},
	} {
		f := progtest.NewFigure2(tc.n, tc.nt, 3)
		c := compile(t, f.Prog, f.Loop, tc.shards, cr.PointToPoint)
		if err := CheckSpec(c); err != nil {
			t.Errorf("%s: spec check rejected a correct compilation: %v", tc.name, err)
		}
	}
}

// TestCheckSpecDetectsCorruption: every ingredient of the substitution —
// the color slots and the exchange step lists — is independently
// recomputed, so corrupting any one of them must be caught.
func TestCheckSpecDetectsCorruption(t *testing.T) {
	fresh := func() *cr.Compiled {
		f := progtest.NewFigure2(48, 8, 3)
		return compile(t, f.Prog, f.Loop, 4, cr.PointToPoint)
	}
	firstExchange := func(c *cr.Compiled) *cr.Exchange {
		for i := range c.Exchanges {
			if c.Exchanges[i].End > i {
				return &c.Exchanges[i]
			}
		}
		t.Fatal("compiled figure2 has no exchange")
		return nil
	}
	for _, tc := range []struct {
		name    string
		corrupt func(c *cr.Compiled)
		want    string
	}{
		{"color index", func(c *cr.Compiled) { c.ColorIdx[c.Owned[1][0]]++ }, "dense slot"},
		{"work partition", func(c *cr.Compiled) {
			for _, steps := range firstExchange(c).Steps {
				if len(steps) > 0 {
					steps[0].Produce = !steps[0].Produce
					return
				}
			}
			t.Fatal("no shard has copy work")
		}, "work list diverges"},
		{"dropped producer", func(c *cr.Compiled) {
			x := firstExchange(c)
			for s, steps := range x.Steps {
				for i := range steps {
					if steps[i].Produce {
						x.Steps[s] = slices.Delete(steps, i, i+1)
						return
					}
				}
			}
			t.Fatal("no shard has producer pairs")
		}, "work list diverges"},
	} {
		c := fresh()
		tc.corrupt(c)
		err := CheckSpec(c)
		if err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the corruption (want %q)", tc.name, err, tc.want)
		}
	}
}
