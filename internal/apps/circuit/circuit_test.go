package circuit

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/cr"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/realm"
	"repro/internal/realm/native"
	"repro/internal/region"
	"repro/internal/rt"
	"repro/internal/spmd"
)

// refCircuit simulates the circuit directly on flat arrays.
func refCircuit(app *App) (voltage []float64) {
	cfg := app.Cfg
	n := int64(cfg.Pieces) * cfg.NodesPerPiece
	nw := int64(cfg.Pieces) * cfg.WiresPerPiece
	v := make([]float64, n)
	q := make([]float64, n)
	c := make([]float64, n)
	cur := make([]float64, nw)
	in, out, resist := app.wires()
	for i := int64(0); i < n; i++ {
		v[i] = 1 + float64(i%17)*0.125
		c[i] = 0.5 + float64(i%7)*0.25
	}
	dt := 1e-3
	for it := 0; it < cfg.Iters; it++ {
		for w := int64(0); w < nw; w++ {
			cur[w] = (v[in[w]] - v[out[w]]) / resist[w]
		}
		for w := int64(0); w < nw; w++ {
			q[in[w]] += -dt * cur[w]
			q[out[w]] += dt * cur[w]
		}
		for i := int64(0); i < n; i++ {
			v[i] += q[i] / c[i]
			q[i] = 0
		}
	}
	return v
}

// wireStreamHash is the FNV-64 of a topology: every input node, then every
// output node, then every resistance's bits, each little-endian.
func wireStreamHash(in, out []int64, resist []float64) uint64 {
	h := fnv.New64()
	var b [8]byte
	for _, words := range [][]int64{in, out} {
		for _, x := range words {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for _, x := range resist {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedWires are the topology hashes recorded while Build still drew the
// wire arrays itself, before any kernel ran.
var pinnedWires = []struct {
	name string
	cfg  Config
	want uint64
}{
	{"Small(4)", Small(4), 0x25a5311851debb4b},
	{"Default(8)", Default(8), 0xef1bdb9ea511e884},
}

// TestWireStreamPinned: drawing the topology lazily must not reorder a
// single RNG draw.
func TestWireStreamPinned(t *testing.T) {
	for _, c := range pinnedWires {
		if got := wireStreamHash(Build(c.cfg).wires()); got != c.want {
			t.Errorf("%s: wire stream hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestWiresDrawnOnFirstKernelCall: compiling and the Modeled runs of both
// engines read partitions and sizes only, so the App holds no wire arrays
// until a kernel body runs.
func TestWiresDrawnOnFirstKernelCall(t *testing.T) {
	app := Build(Small(4))
	plans, err := spmd.CompileAll(app.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spmd.New(realm.MustNewSim(realm.DefaultConfig(4)), app.Prog, ir.ExecModeled, plans).Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.New(realm.MustNewSim(realm.DefaultConfig(4)), app.Prog, ir.ExecModeled).Run(); err != nil {
		t.Fatal(err)
	}
	if app.inNode != nil || app.outNode != nil || app.resist != nil {
		t.Fatal("wire arrays drawn before any kernel ran")
	}
	ir.ExecSequential(app.Prog)
	if app.inNode == nil {
		t.Fatal("wire arrays not drawn by the kernels")
	}
	if got, want := wireStreamHash(app.inNode, app.outNode, app.resist), pinnedWires[0].want; got != want {
		t.Fatalf("wire stream hash %#x, want %#x", got, want)
	}
}

// TestNativeDrawsWiresOnce runs a fresh app for real on the native pool, one
// worker or more per node, where the first kernel calls of several workers
// race to draw the topology (run it under -race). The benchmark's graph
// takes long enough to draw that they overlap.
func TestNativeDrawsWiresOnce(t *testing.T) {
	cfg := Default(4)
	cfg.Iters = 2
	ref := Build(cfg)
	seq := ir.ExecSequential(ref.Prog)
	app := Build(cfg)
	plans, err := spmd.CompileAll(app.Prog, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := spmd.New(native.MustNewMachine(realm.DefaultConfig(4)), app.Prog, ir.ExecReal, plans).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[app.Nodes].EqualOn(seq.Stores[ref.Nodes], app.Voltage, app.Nodes.IndexSpace()) {
		t.Fatal("voltage mismatch")
	}
}

func TestGraphStructure(t *testing.T) {
	app := Build(Small(4))
	cfg := app.Cfg
	pieces := int64(cfg.Pieces)
	// Every wire's input node is in its own piece.
	in, _, _ := app.wires()
	for w := range in {
		piece := int64(w) / cfg.WiresPerPiece
		if in[w]/cfg.NodesPerPiece != piece {
			t.Fatalf("wire %d input node in wrong piece", w)
		}
	}
	// Validate the unchecked partition constructions through the checked
	// invariants: PVT+SHR cover each piece disjointly; ghosts only hold
	// remote shared nodes.
	var pvtVol, shrVol int64
	for i := int64(0); i < pieces; i++ {
		pv := app.PvtN.Sub1(i).IndexSpace()
		sh := app.ShrN.Sub1(i).IndexSpace()
		if pv.Overlaps(sh) {
			t.Fatalf("piece %d: private and shared overlap", i)
		}
		pvtVol += pv.Volume()
		shrVol += sh.Volume()
		gh := app.GhostN.Sub1(i).IndexSpace()
		gh.Each(func(pt geometry.Point) bool {
			if pt.X()/cfg.NodesPerPiece == i {
				t.Fatalf("piece %d: ghost contains own node %d", i, pt.X())
			}
			return true
		})
	}
	if pvtVol+shrVol != pieces*cfg.NodesPerPiece {
		t.Fatalf("pvt+shr = %d, want %d", pvtVol+shrVol, pieces*cfg.NodesPerPiece)
	}
	// Tree facts the compiler relies on (§4.5).
	if region.PartitionsMayAlias(app.PvtN, app.GhostN) {
		t.Error("private must be provably disjoint from ghost")
	}
	if !region.PartitionsMayAlias(app.ShrN, app.GhostN) {
		t.Error("shared and ghost may alias")
	}
}

func TestSequentialMatchesReference(t *testing.T) {
	app := Build(Small(4))
	want := refCircuit(app)
	res := ir.ExecSequential(app.Prog)
	st := res.Stores[app.Nodes]
	bad := 0
	app.Nodes.IndexSpace().Each(func(pt geometry.Point) bool {
		if got := st.Get(app.Voltage, pt); got != want[pt.X()] {
			bad++
			if bad < 5 {
				t.Errorf("voltage[%d] = %v, want %v", pt.X(), got, want[pt.X()])
			}
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d voltages differ", bad)
	}
}

func TestCRMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		pieces int
		sync   cr.SyncMode
	}{
		{1, cr.PointToPoint},
		{4, cr.PointToPoint},
		{4, cr.BarrierSync},
		{6, cr.PointToPoint},
	} {
		app := Build(Small(tc.pieces))
		seq := ir.ExecSequential(app.Prog)

		app2 := Build(Small(tc.pieces))
		plans, err := spmd.CompileAll(app2.Prog, cr.Options{NumShards: tc.pieces, Sync: tc.sync})
		if err != nil {
			t.Fatal(err)
		}
		sim := realm.MustNewSim(realm.DefaultConfig(tc.pieces))
		res, err := spmd.New(sim, app2.Prog, ir.ExecReal, plans).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []region.FieldID{app.Voltage, app.Charge} {
			if !res.Stores[app2.Nodes].EqualOn(seq.Stores[app.Nodes], f, app.Nodes.IndexSpace()) {
				t.Fatalf("pieces=%d sync=%v: node field %d mismatch", tc.pieces, tc.sync, f)
			}
		}
		if !res.Stores[app2.Wires].EqualOn(seq.Stores[app.Wires], app.Current, app.Wires.IndexSpace()) {
			t.Fatalf("pieces=%d sync=%v: current mismatch", tc.pieces, tc.sync)
		}
	}
}

func TestImplicitMatchesSequential(t *testing.T) {
	app := Build(Small(4))
	seq := ir.ExecSequential(app.Prog)
	app2 := Build(Small(4))
	sim := realm.MustNewSim(realm.DefaultConfig(4))
	res, err := rt.New(sim, app2.Prog, ir.ExecReal).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stores[app2.Nodes].EqualOn(seq.Stores[app.Nodes], app.Voltage, app.Nodes.IndexSpace()) {
		t.Fatal("voltage mismatch")
	}
}

func TestCompiledShape(t *testing.T) {
	app := Build(Small(4))
	plan, err := cr.Compile(app.Prog, app.Loop, cr.Options{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// No copies may involve the private partition (§4.5), and the
	// shared->ghost voltage copy plus reduction copies must be present.
	var plain, reduce int
	for _, op := range plan.Body {
		if op.Copy == nil {
			continue
		}
		if op.Copy.Src == app.PvtN || op.Copy.Dst == app.PvtN {
			// Reduction folds into private are expected (wires reduce into
			// own private nodes); plain copies are not.
			if op.Copy.Reduce == region.ReduceNone {
				t.Errorf("plain copy involves private partition: %v", op.Copy)
			}
		}
		if op.Copy.Reduce == region.ReduceNone {
			plain++
		} else {
			reduce++
		}
	}
	if plain == 0 {
		t.Error("expected a shared->ghost voltage copy")
	}
	if reduce == 0 {
		t.Error("expected reduction copies for distribute_charge")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a := Build(Small(3))
	b := Build(Small(3))
	aIn, aOut, aRes := a.wires()
	bIn, bOut, bRes := b.wires()
	if !slices.Equal(aIn, bIn) || !slices.Equal(aOut, bOut) || !slices.Equal(aRes, bRes) {
		t.Fatal("graph generation not deterministic")
	}
	for i := int64(0); i < 3; i++ {
		if !a.GhostN.Sub1(i).IndexSpace().Equal(b.GhostN.Sub1(i).IndexSpace()) {
			t.Fatal("ghost sets not deterministic")
		}
	}
}

// BenchmarkCircuitBuild is graph generation plus the private/shared/ghost
// node sets, the part whose cost per piece must not grow with the pieces.
func BenchmarkCircuitBuild(b *testing.B) {
	for _, pieces := range []int{256, 1024} {
		b.Run(strconv.Itoa(pieces), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(Default(pieces))
			}
		})
	}
}
