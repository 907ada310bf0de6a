package ir

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/region"
)

// figure2Program builds the paper's Figure 2 program: regions A and B of
// size n, block partitions PA and PB over nt colors, image partition QB
// through h(j) = j+shift mod n, and the loop
//
//	for t = 0..T { for i: TF(PB[i], PA[i]); for j: TG(PA[j], QB[j]) }
//
// with F(x) = x+1 and G(y) = 2y.
func figure2Program(n, nt int64, trip int) (*Program, *region.Region, *region.Region) {
	p := NewProgram("figure2")
	fs := region.NewFieldSpace("val")
	val := fs.Field("val")

	a := p.Tree.NewRegion("A", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	b := p.Tree.NewRegion("B", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[a] = fs
	p.FieldSpaces[b] = fs

	pa := a.Block("PA", nt)
	pb := b.Block("PB", nt)
	shift := int64(3)
	qb := region.Image(b, pb, "QB", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + shift) % n)}
	})

	tf := &TaskDecl{
		Name: "TF",
		Params: []Param{
			{Name: "B", Priv: PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "A", Priv: PrivRead, Fields: []region.FieldID{val}},
		},
		Kernel: func(tc *TaskCtx) {
			bArg, aArg := &tc.Args[0], &tc.Args[1]
			bArg.Each(func(pt geometry.Point) bool {
				bArg.Set(val, pt, aArg.Get(val, pt)+1)
				return true
			})
		},
		CostPerElem: 1,
	}
	tg := &TaskDecl{
		Name: "TG",
		Params: []Param{
			{Name: "A", Priv: PrivReadWrite, Fields: []region.FieldID{val}},
			{Name: "B", Priv: PrivRead, Fields: []region.FieldID{val}},
		},
		Kernel: func(tc *TaskCtx) {
			aArg, bArg := &tc.Args[0], &tc.Args[1]
			aArg.Each(func(pt geometry.Point) bool {
				h := geometry.Pt1((pt.X() + shift) % n)
				aArg.Set(val, pt, 2*bArg.Get(val, h))
				return true
			})
		},
		CostPerElem: 1,
	}

	p.Add(
		&FillFunc{Target: a, Field: val, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&Fill{Target: b, Field: val, Value: 0},
		&Loop{Var: "t", Trip: trip, Body: []Stmt{
			&Launch{Task: tf, Domain: Colors1D(nt), Args: []RegionArg{{Part: pb}, {Part: pa}}, Label: "loopF"},
			&Launch{Task: tg, Domain: Colors1D(nt), Args: []RegionArg{{Part: pa}, {Part: qb}}, Label: "loopG"},
		}},
	)
	return p, a, b
}

// seqModel computes the expected result of figure2Program directly.
func seqModel(n int64, trip int) (aVals, bVals []float64) {
	shift := int64(3)
	aVals = make([]float64, n)
	bVals = make([]float64, n)
	for i := int64(0); i < n; i++ {
		aVals[i] = float64(i)
	}
	for t := 0; t < trip; t++ {
		for i := int64(0); i < n; i++ {
			bVals[i] = aVals[i] + 1
		}
		for j := int64(0); j < n; j++ {
			aVals[j] = 2 * bVals[(j+shift)%n]
		}
	}
	return aVals, bVals
}

func TestSequentialExecutionMatchesModel(t *testing.T) {
	n, nt, trip := int64(24), int64(4), 3
	p, a, b := figure2Program(n, nt, trip)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res := ExecSequential(p)
	wantA, wantB := seqModel(n, trip)
	fs := p.FieldSpaces[a]
	val := fs.Field("val")
	for i := int64(0); i < n; i++ {
		if got := res.Stores[a].Get(val, geometry.Pt1(i)); got != wantA[i] {
			t.Errorf("A[%d] = %v, want %v", i, got, wantA[i])
		}
		if got := res.Stores[b].Get(val, geometry.Pt1(i)); got != wantB[i] {
			t.Errorf("B[%d] = %v, want %v", i, got, wantB[i])
		}
	}
}

func TestSequentialScalarReduce(t *testing.T) {
	p := NewProgram("sum")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 9)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 5)
	sum := &TaskDecl{
		Name:   "sum",
		Params: []Param{{Name: "R", Priv: PrivRead, Fields: []region.FieldID{x}}},
		Kernel: func(tc *TaskCtx) {
			tc.Args[0].Each(func(pt geometry.Point) bool {
				tc.Return += tc.Args[0].Get(x, pt)
				return true
			})
		},
	}
	p.Add(
		&FillFunc{Target: r, Field: x, Fn: func(pt geometry.Point) float64 { return float64(pt.X()) }},
		&Launch{Task: sum, Domain: Colors1D(5), Args: []RegionArg{{Part: pr}},
			Reduce: &ScalarReduce{Into: "total", Op: region.ReduceSum}},
	)
	res := ExecSequential(p)
	if got := res.Env["total"]; got != 45 {
		t.Errorf("total = %v, want 45", got)
	}
}

func TestSequentialRegionReduction(t *testing.T) {
	// Tasks reduce-sum into an aliased image partition; verify fold results.
	p := NewProgram("reduce")
	fs := region.NewFieldSpace("acc")
	acc := fs.Field("acc")
	n := int64(8)
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	// Every task contributes 1 to its own elements and its right neighbor's
	// first element via an overlapping image.
	img := region.Image(r, pr, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{pt, geometry.Pt1((pt.X() + 1) % n)}
	})
	task := &TaskDecl{
		Name:   "contrib",
		Params: []Param{{Name: "IMG", Priv: PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{acc}}},
		Kernel: func(tc *TaskCtx) {
			tc.Args[0].Each(func(pt geometry.Point) bool {
				tc.Args[0].Reduce(acc, region.ReduceSum, pt, 1)
				return true
			})
		},
	}
	p.Add(
		&Fill{Target: r, Field: acc, Value: 0},
		&Launch{Task: task, Domain: Colors1D(4), Args: []RegionArg{{Part: img}}},
	)
	res := ExecSequential(p)
	// IMG[i] covers PR[i] plus one wrapped element, so each element is in
	// its own block's image, and block boundaries' first elements are in two.
	for i := int64(0); i < n; i++ {
		want := 1.0
		if i%2 == 0 { // PR blocks are {0,1},{2,3},... images add elem (i+1)%n
			want = 2.0
		}
		if got := res.Stores[r].Get(acc, geometry.Pt1(i)); got != want {
			t.Errorf("acc[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestValidateCatchesArgMismatch(t *testing.T) {
	p, _, _ := figure2Program(8, 2, 1)
	l := p.Stmts[2].(*Loop).Body[0].(*Launch)
	saved := l.Args
	l.Args = l.Args[:1]
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "region args") {
		t.Errorf("expected arg mismatch error, got %v", err)
	}
	l.Args = saved
	if err := p.Validate(); err != nil {
		t.Errorf("restored program should validate: %v", err)
	}
}

func TestValidateCatchesBadField(t *testing.T) {
	p, _, _ := figure2Program(8, 2, 1)
	l := p.Stmts[2].(*Loop).Body[0].(*Launch)
	l.Task.Params[0].Fields = []region.FieldID{99}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("expected unknown-field error, got %v", err)
	}
}

// A field named twice in one parameter would be folded twice by a
// reduction (and counted once by a set), so Validate refuses it.
func TestValidateCatchesRepeatedField(t *testing.T) {
	p, _, _ := figure2Program(8, 2, 1)
	l := p.Stmts[2].(*Loop).Body[0].(*Launch)
	l.Task.Params[1].Fields = []region.FieldID{0, 0}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ir: launch loopF param 1 names field val twice") {
		t.Errorf("expected repeated-field error, got %v", err)
	}
}

func TestValidateCatchesFillInLoop(t *testing.T) {
	p, a, _ := figure2Program(8, 2, 1)
	loop := p.Stmts[2].(*Loop)
	loop.Body = append(loop.Body, &Fill{Target: a, Field: 0, Value: 1})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "setup-only") {
		t.Errorf("expected fill-in-loop error, got %v", err)
	}
}

func TestValidateCatchesReduceWithoutOp(t *testing.T) {
	p := NewProgram("bad")
	fs := region.NewFieldSpace("x")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 3)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 2)
	task := &TaskDecl{Name: "t", Params: []Param{{Priv: PrivReduce, Fields: []region.FieldID{0}}}}
	p.Add(&Launch{Task: task, Domain: Colors1D(2), Args: []RegionArg{{Part: pr}}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "without an operator") {
		t.Errorf("expected missing-op error, got %v", err)
	}
}

// The executors index l.Args[l.Task.CostArg] for every launch point, so
// Validate is where a launch with nothing to index is refused.
func TestValidateCatchesNoRegionArgs(t *testing.T) {
	p := NewProgram("bad")
	task := &TaskDecl{Name: "t", NumScalars: 1}
	p.Add(&Launch{Task: task, Domain: Colors1D(2), ScalarArgs: []ScalarExpr{ConstExpr(1)}})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "no region argument") {
		t.Errorf("expected no-region-argument error, got %v", err)
	}
}

func TestValidateCatchesCostArgOutOfRange(t *testing.T) {
	for _, costArg := range []int{-1, 2} {
		p, _, _ := figure2Program(8, 2, 1)
		l := p.Stmts[2].(*Loop).Body[0].(*Launch)
		l.Task.CostArg = costArg
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "takes its cost from region argument") {
			t.Errorf("CostArg %d: expected cost-argument error, got %v", costArg, err)
		}
	}
}

func TestPrivilegeEnforcement(t *testing.T) {
	fs := region.NewFieldSpace("x", "y")
	x, y := fs.Field("x"), fs.Field("y")
	tr := region.NewTree()
	r := tr.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 3)))
	st := region.NewStore(r.IndexSpace(), fs)

	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}

	ro := NewPhysArg(r, st, Param{Priv: PrivRead, Fields: []region.FieldID{x}})
	_ = ro.Get(x, geometry.Pt1(0))
	expectPanic("write without privilege", func() { ro.Set(x, geometry.Pt1(0), 1) })
	expectPanic("read undeclared field", func() { ro.Get(y, geometry.Pt1(0)) })

	rw := NewPhysArg(r, st, Param{Priv: PrivReadWrite, Fields: []region.FieldID{x}})
	rw.Set(x, geometry.Pt1(0), 2)
	expectPanic("reduce without reduce privilege", func() {
		rw.Reduce(x, region.ReduceSum, geometry.Pt1(0), 1)
	})

	rd := NewPhysArg(r, st, Param{Priv: PrivReduce, Op: region.ReduceSum, Fields: []region.FieldID{x}})
	rd.Reduce(x, region.ReduceSum, geometry.Pt1(0), 1)
	expectPanic("read under reduce privilege", func() { rd.Get(x, geometry.Pt1(0)) })
	expectPanic("reduce with wrong op", func() { rd.Reduce(x, region.ReduceMin, geometry.Pt1(0), 1) })
}

func TestConflictsLattice(t *testing.T) {
	cases := []struct {
		a    Privilege
		aOp  region.ReductionOp
		b    Privilege
		bOp  region.ReductionOp
		want bool
	}{
		{PrivRead, region.ReduceNone, PrivRead, region.ReduceNone, false},
		{PrivRead, region.ReduceNone, PrivReadWrite, region.ReduceNone, true},
		{PrivReadWrite, region.ReduceNone, PrivRead, region.ReduceNone, true},
		{PrivReadWrite, region.ReduceNone, PrivReadWrite, region.ReduceNone, true},
		{PrivReduce, region.ReduceSum, PrivReduce, region.ReduceSum, false},
		{PrivReduce, region.ReduceSum, PrivReduce, region.ReduceMin, true},
		{PrivReduce, region.ReduceSum, PrivRead, region.ReduceNone, true},
		{PrivRead, region.ReduceNone, PrivReduce, region.ReduceSum, true},
	}
	for _, c := range cases {
		if got := Conflicts(c.a, c.aOp, c.b, c.bOp); got != c.want {
			t.Errorf("Conflicts(%v,%v,%v,%v) = %v, want %v", c.a, c.aOp, c.b, c.bOp, got, c.want)
		}
	}
}

func TestNormalizeProjections(t *testing.T) {
	// Build a launch using p[f(i)] with f(i) = i+1 mod nt, then normalize.
	p := NewProgram("proj")
	fs := region.NewFieldSpace("x")
	x := fs.Field("x")
	n, nt := int64(12), int64(4)
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, n-1)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", nt)
	read := &TaskDecl{
		Name:   "read",
		Params: []Param{{Priv: PrivRead, Fields: []region.FieldID{x}}},
		Kernel: func(tc *TaskCtx) {},
	}
	shiftProj := func(c geometry.Point) geometry.Point { return geometry.Pt1((c.X() + 1) % nt) }
	p.Add(
		&Loop{Var: "t", Trip: 2, Body: []Stmt{
			&Launch{Task: read, Domain: Colors1D(nt), Args: []RegionArg{{Part: pr, Proj: shiftProj, ProjName: "shift1"}}},
			&Launch{Task: read, Domain: Colors1D(nt), Args: []RegionArg{{Part: pr, Proj: shiftProj, ProjName: "shift1"}}},
		}},
	)
	nPartsBefore := len(p.Tree.Partitions())
	NormalizeProjections(p)
	loop := p.Stmts[0].(*Loop)
	l1 := loop.Body[0].(*Launch)
	l2 := loop.Body[1].(*Launch)
	if !l1.Args[0].Identity() || !l2.Args[0].Identity() {
		t.Fatal("projections should be rewritten to identity")
	}
	if l1.Args[0].Part == pr {
		t.Fatal("argument should use a fresh materialized partition")
	}
	if l1.Args[0].Part != l2.Args[0].Part {
		t.Error("identical projections should share the materialized partition")
	}
	if len(p.Tree.Partitions()) != nPartsBefore+1 {
		t.Errorf("expected exactly one new partition, got %d", len(p.Tree.Partitions())-nPartsBefore)
	}
	// q[i] must equal pr[f(i)].
	q := l1.Args[0].Part
	for i := int64(0); i < nt; i++ {
		want := pr.Sub1((i + 1) % nt).IndexSpace()
		if !q.Sub1(i).IndexSpace().Equal(want) {
			t.Errorf("q[%d] = %v, want %v", i, q.Sub1(i).IndexSpace(), want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("normalized program should validate: %v", err)
	}
}

func TestReplicableLoopBody(t *testing.T) {
	p, a, _ := figure2Program(8, 2, 1)
	loop := p.Stmts[2].(*Loop)
	if !ReplicableLoopBody(loop.Body) {
		t.Error("figure-2 loop body should be replicable")
	}
	bad := append([]Stmt{}, loop.Body...)
	bad = append(bad, &Fill{Target: a, Field: 0, Value: 0})
	if ReplicableLoopBody(bad) {
		t.Error("loop with a fill should not be replicable")
	}
	nested := []Stmt{&Loop{Var: "u", Trip: 2, Body: loop.Body}}
	if !ReplicableLoopBody(nested) {
		t.Error("nested launch loops should be replicable")
	}
}

func TestMapEnvUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unbound scalar")
		}
	}()
	MapEnv{}.Get("missing")
}

func TestScalarExprHelpers(t *testing.T) {
	env := MapEnv{"a": 2.5}
	if ConstExpr(3)(env) != 3 {
		t.Error("ConstExpr")
	}
	if VarExpr("a")(env) != 2.5 {
		t.Error("VarExpr")
	}
}

func TestTaskCost(t *testing.T) {
	td := &TaskDecl{CostFixed: 100, CostPerElem: 2}
	if got := td.Cost(50); got != 200 {
		t.Errorf("cost = %v", got)
	}
	if math.IsNaN(td.Cost(0)) {
		t.Error("cost should be defined at zero volume")
	}
}

// TestSequentialLaunchRepartitionedMidLoop: a scalar statement swaps a
// launch's partition between iterations 1 and 2, moving elements 4 and 5
// from colour 1 to colour 0. Every task adds 1 + its colour to each element
// of its subregion — directly, or through a reduction — so which subregions
// the launch ran over shows in the stores: the two moved elements read
// 2+2+1+1, not the 2+2+2+2 of a launch still running over the partition it
// was first resolved for.
func TestSequentialLaunchRepartitionedMidLoop(t *testing.T) {
	for _, priv := range []Privilege{PrivReadWrite, PrivReduce} {
		p := NewProgram("repartition")
		fs := region.NewFieldSpace("v")
		v := fs.Field("v")
		r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
		p.FieldSpaces[r] = fs
		pa := r.Block("PA", 4)
		pb := r.BySubsets("PB", geometry.NewIndexSpace(geometry.R1(0, 3)), map[geometry.Point]geometry.IndexSpace{
			geometry.Pt1(0): geometry.NewIndexSpace(geometry.R1(0, 5)),
			geometry.Pt1(1): geometry.NewIndexSpace(geometry.R1(6, 7)),
			geometry.Pt1(2): geometry.NewIndexSpace(geometry.R1(8, 11)),
			geometry.Pt1(3): geometry.NewIndexSpace(geometry.R1(12, 15)),
		})
		task := &TaskDecl{
			Name:   "addcolour",
			Params: []Param{{Priv: priv, Op: region.ReduceSum, Fields: []region.FieldID{v}}},
			Kernel: func(tc *TaskCtx) {
				arg, add := &tc.Args[0], float64(1+tc.Color.X())
				arg.Each(func(pt geometry.Point) bool {
					if priv == PrivReduce {
						arg.Reduce(v, region.ReduceSum, pt, add)
					} else {
						arg.Set(v, pt, arg.Get(v, pt)+add)
					}
					return true
				})
			},
		}
		launch := &Launch{Task: task, Domain: Colors1D(4), Args: []RegionArg{{Part: pa}}}
		p.Add(
			&Fill{Target: r, Field: v, Value: 0},
			&Loop{Var: "t", Trip: 4, Body: []Stmt{
				&SetScalar{Name: "swap", Expr: func(env Env) float64 {
					if env.Get("t") == 2 {
						launch.Args[0].Part = pb
					}
					return 0
				}},
				launch,
			}},
		)
		st := ExecSequential(p).Stores[r]
		for x := int64(0); x < 16; x++ {
			want := float64(4 * (1 + x/4))
			if x == 4 || x == 5 {
				want = 6
			}
			if got := st.Get(v, geometry.Pt1(x)); got != want {
				t.Errorf("%v: R[%d] = %v, want %v", priv, x, got, want)
			}
		}
	}
}

// TestCheckIndependent is the §2.2 rule's table: which argument shapes make
// the point tasks of one launch dependent.
func TestCheckIndependent(t *testing.T) {
	p := NewProgram("indep")
	fs := region.NewFieldSpace("x", "y")
	x, y := fs.Field("x"), fs.Field("y")
	r := p.Tree.NewRegion("R", geometry.NewIndexSpace(geometry.R1(0, 15)))
	p.FieldSpaces[r] = fs
	pr := r.Block("PR", 4)
	img := region.Image(r, pr, "IMG", func(pt geometry.Point) []geometry.Point {
		return []geometry.Point{geometry.Pt1((pt.X() + 1) % 16)}
	})
	next := RegionArg{Part: pr, ProjName: "next", Proj: func(c geometry.Point) geometry.Point { return geometry.Pt1((c.X() + 1) % 4) }}
	param := func(priv Privilege, f region.FieldID) Param { return Param{Priv: priv, Fields: []region.FieldID{f}} }
	cases := []struct {
		name   string
		params []Param
		args   []RegionArg
		want   string // error fragment; "" means independent
	}{
		{"read-write on aliased", []Param{param(PrivReadWrite, x)}, []RegionArg{{Part: img}},
			"ir: launch t writes aliased partition IMG; tasks of one launch must be independent"},
		{"conflicting pair through image", []Param{param(PrivReadWrite, x), param(PrivRead, x)}, []RegionArg{{Part: pr}, {Part: img}},
			"ir: launch t has conflicting aliased arguments 0 and 1"},
		{"same disjoint partition, identity", []Param{param(PrivReadWrite, x), param(PrivRead, x)}, []RegionArg{{Part: pr}, {Part: pr}}, ""},
		{"read/read on aliased", []Param{param(PrivRead, x), param(PrivRead, x)}, []RegionArg{{Part: img}, {Part: img}}, ""},
		{"disjoint field lists", []Param{param(PrivReadWrite, x), param(PrivRead, y)}, []RegionArg{{Part: pr}, {Part: img}}, ""},
		{"un-normalized projection", []Param{param(PrivReadWrite, x), param(PrivRead, x)}, []RegionArg{{Part: pr}, next},
			"ir: launch t has conflicting aliased arguments 0 and 1"},
	}
	for _, c := range cases {
		l := &Launch{Task: &TaskDecl{Name: "t", Params: c.params}, Domain: Colors1D(4), Args: c.args}
		err := l.CheckIndependent()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}
