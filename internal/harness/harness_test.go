package harness

import (
	"slices"
	"strings"
	"testing"
)

func TestAppsRegistry(t *testing.T) {
	apps := Apps()
	if len(apps) != 4 {
		t.Fatalf("apps = %d", len(apps))
	}
	figures := map[int]bool{}
	for _, a := range apps {
		figures[a.Figure] = true
		hasBaselines := slices.ContainsFunc(a.Systems, func(s string) bool { return !isRegent(s) })
		if a.Build == nil || len(a.Systems) == 0 || hasBaselines != (a.Baseline != nil) {
			t.Errorf("app %s incomplete", a.Name)
		}
	}
	for f := 6; f <= 9; f++ {
		if !figures[f] {
			t.Errorf("missing figure %d", f)
		}
	}
	if _, err := AppByName("pennant"); err != nil {
		t.Error(err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("expected error for unknown app")
	}
}

func TestRunFigureSmall(t *testing.T) {
	app, err := AppByName("circuit")
	if err != nil {
		t.Fatal(err)
	}
	series, err := RunFigure(app, []int{1, 2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(app.Systems) {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s points = %d", s.System, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Throughput <= 0 || p.PerIter <= 0 {
				t.Errorf("%s@%d: bad point %+v", s.System, p.Nodes, p)
			}
		}
	}
	text := FormatFigure(app, series)
	if !strings.Contains(text, "Figure 9") || !strings.Contains(text, "parallel efficiency") {
		t.Errorf("figure text malformed:\n%s", text)
	}
}

func TestTable1Small(t *testing.T) {
	rows, err := Table1Parallel([]int{4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 4 apps x 2 node counts", len(rows))
	}
	for _, r := range rows {
		if r.FinalPairs <= 0 {
			t.Errorf("%s@%d: no intersection pairs", r.App, r.Nodes)
		}
		if r.FinalPairs > r.Candidates {
			t.Errorf("%s@%d: pairs %d exceed candidates %d", r.App, r.Nodes, r.FinalPairs, r.Candidates)
		}
		if r.ShallowMs < 0 || r.CompleteMs < 0 {
			t.Errorf("%s@%d: negative timings", r.App, r.Nodes)
		}
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, "circuit") {
		t.Errorf("table text malformed:\n%s", text)
	}
}
