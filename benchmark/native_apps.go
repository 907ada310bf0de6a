package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/bench"
	"repro/internal/geometry"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/region"
)

// nativeApps runs real kernels on real goroutines (realm/native, Real
// mode): the four apps under both Regent systems at the size App.Measure
// uses with Backend: native, plus a program written in the DSL whose
// kernels are interpreted. Programs are built once in set-up and compiled
// and run in every pass; every run's final stores must checksum to what
// ir.ExecSequential produces. The seed only orders the programs.
var nativeApps = workload{
	name: "native_apps",
	why:  "the only workload where kernel bodies, copies, Store.Get/Set, interpreted DSL kernels and the native scheduler do the work; the DES and verify are idle",
	prepare: func(sz sizes, seed int64) ([]cell, error) {
		var cells []cell
		n := sz.nativeNodes
		for _, spec := range appSpecs {
			spec := spec
			prog, loop := spec.build(sz.nativeSizing, n, sz.nativeIters)
			oracle := func() string { return seqChecksum(prog) }
			cells = append(cells,
				cell{name: spec.name + "/cr", ref: true, oracle: oracle, run: func(p *pass) (string, error) {
					return nativeCell(p, spec.name, false, func(o runOpts) (*runOut, error) {
						return runCR(p.tr, prog, loop, n, spec.tuning(n), o)
					})
				}},
				cell{name: spec.name + "/nocr", ref: true, oracle: oracle, run: func(p *pass) (string, error) {
					return nativeCell(p, spec.name, true, func(o runOpts) (*runOut, error) {
						return runImplicit(p.tr, prog, loop, n, spec.tuning(n), o)
					})
				}})
		}
		heat, err := lang.Compile(heatSource(sz.heatElems, n, sz.heatSteps))
		if err != nil {
			return nil, fmt.Errorf("heat_dsl: %w", err)
		}
		// The program has one top-level loop, its time-step loop, so compiling
		// that loop is what spmd.CompileAll would do.
		var heatLoop *ir.Loop
		for _, s := range heat.Stmts {
			if l, ok := s.(*ir.Loop); ok {
				heatLoop = l
			}
		}
		heatOracle := func() string { return seqChecksum(heat) }
		cells = append(cells, cell{name: "heat_dsl/cr", ref: true, oracle: heatOracle, run: func(p *pass) (string, error) {
			// Three kernels touch every element once per step.
			updates := 3 * float64(sz.heatElems)
			sum, err := nativeCell(p, "heat_dsl", false, func(o runOpts) (*runOut, error) {
				return runCR(p.tr, heat, heatLoop, n, appSpec{}.tuning(n), o)
			})
			for _, ms := range p.samples["native.iter_ms.heat_dsl"] {
				p.sample("lang.kernel_melem_per_s", updates/(ms/1e3)/1e6)
			}
			return sum, err
		}})
		rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		return cells, nil
	},
	probes: func(sz sizes) []cell {
		n := sz.nativeNodes
		cells := []cell{
			{name: "probe/lang", run: func(p *pass) (string, error) {
				var src string
				var err error
				done := p.tr.span("lang.generate")
				src = heatSource(sz.heatElems, n, sz.heatSteps)
				done()
				wall := timeIt(func() { _, err = lang.Compile(src) })
				p.add("lang.compile_ms", float64(wall.Nanoseconds())/1e6)
				p.add("lang.src_bytes", float64(len(src)))
				return "", err
			}},
			{name: "probe/region", run: func(p *pass) (string, error) { regionLoops(p); return "", nil }},
		}
		// The plain single-threaded run of the same programs: the oracle,
		// and the base of native.speedup_vs_seq.
		seq := func(name string, build func() (*ir.Program, int)) cell {
			return cell{name: "seq/" + name, ref: true, run: func(p *pass) (string, error) {
				prog, iters := build()
				var sum string
				wall := timeIt(func() { sum = seqChecksum(prog) })
				p.add("ir.seq_run_ms", float64(wall.Nanoseconds())/1e6)
				p.add("_seq_run_ms."+name, float64(wall.Nanoseconds())/1e6)
				p.add("_seq_iters", float64(iters))
				return sum, nil
			}}
		}
		for _, spec := range appSpecs {
			spec := spec
			cells = append(cells, seq(spec.name, func() (*ir.Program, int) {
				prog, _ := spec.build(sz.nativeSizing, n, sz.nativeIters)
				return prog, sz.nativeIters
			}))
		}
		return append(cells, seq("heat_dsl", func() (*ir.Program, int) {
			prog, err := lang.Compile(heatSource(sz.heatElems, n, sz.heatSteps))
			if err != nil {
				panic(err)
			}
			return prog, sz.heatSteps
		}))
	},
}

// nativeCell runs one program on the native backend in Real mode and
// records its steady-state per-iteration wall times as samples.
func nativeCell(p *pass, prog string, implicit bool, run func(runOpts) (*runOut, error)) (string, error) {
	metric := "native.iter_ms." + prog
	if implicit {
		metric = "native.implicit_iter_ms." + prog
	}
	p.tr.at(p.sz.nativeNodes)
	o := runOpts{real: true, backend: bench.BackendNative}
	var busy *busyRecorder
	if p.tr != nil {
		busy = &busyRecorder{}
		o.rec = busy
	}
	// Collect the previous program's stores first: otherwise peak RSS is a
	// race between the collector and this program's allocations, and varies
	// by half from run to run. The heap is a few MB here, so this is cheap.
	runtime.GC()
	out, err := run(o)
	if err != nil {
		return "", err
	}
	p.count(out)
	if busy != nil {
		p.countBusy(busy)
	}
	if !implicit {
		p.add("_native_run_ms."+prog, float64(out.wall.Nanoseconds())/1e6)
	}
	for i := len(out.iterTimes)/4 + 1; i < len(out.iterTimes); i++ {
		p.sample(metric, float64(out.iterTimes[i]-out.iterTimes[i-1])/1e6)
	}
	return out.sum, nil
}

// heatSource is testdata/heat.cr regenerated at a given size: periodic 1-D
// heat diffusion with a per-step energy reduction, one block per node.
func heatSource(elems, pieces, steps int) string {
	return fmt.Sprintf(`program heat

region T[0..%[1]d]    fields { cur }
region TNEW[0..%[1]d] fields { next }

partition PT   = block(T, %[3]d)
partition PNEW = block(TNEW, %[3]d)
partition HALO = image(T, PT, ring(-1, 1))

task diffuse(out: region writes(next), in: region reads(cur)) {
  for p in out {
    out.next[p] = 0.25 * in.cur[p - 1 mod %[2]d]
                + 0.5  * in.cur[p]
                + 0.25 * in.cur[p + 1 mod %[2]d]
  }
}

task commit(t: region writes(cur), n: region reads(next), source: scalar) {
  for p in t { t.cur[p] = n.next[p] + source }
}

task energy(t: region reads(cur)) {
  for p in t { result += t.cur[p] }
}

fill T.cur     = idx
fill TNEW.next = 0
var heating = 0.01

for step = 0, %[4]d {
  launch diffuse(PNEW[i], HALO[i])
  launch commit(PT[i], PNEW[i]; heating)
  reduce + total = launch energy(PT[i])
}
`, elems-1, elems, pieces, steps)
}

// regionLoops times the accessors kernels go through once per element:
// Store.Get/Set on a single-span layout (a stencil tile), Get on a
// many-span layout (a circuit-shaped sparse set), and CopyFieldFrom over a
// halo — the calls ROADMAP names as what native kernels are made of.
func regionLoops(p *pass) {
	defer p.tr.span("region.loops")()
	fs := region.NewFieldSpace("v")
	f := fs.Field("v")
	side := p.sz.regionSide
	tile := region.NewStore(geometry.NewIndexSpace(geometry.R2(0, 0, side-1, side-1)), fs)
	var sink float64
	// The points are collected first so that the loop times the accessor,
	// not the index-space iterator.
	perElem := func(fn func(pt geometry.Point), is geometry.IndexSpace, reps int) float64 {
		var pts []geometry.Point
		is.Each(func(pt geometry.Point) bool { pts = append(pts, pt); return true })
		wall := timeIt(func() {
			for r := 0; r < reps; r++ {
				for _, pt := range pts {
					fn(pt)
				}
			}
		})
		return float64(wall.Nanoseconds()) / float64(reps*len(pts))
	}
	p.add("region.set_ns", perElem(func(pt geometry.Point) { tile.Set(f, pt, 1.5) }, tile.IndexSpace(), 8))
	p.add("region.get_ns", perElem(func(pt geometry.Point) { sink += tile.Get(f, pt) }, tile.IndexSpace(), 8))

	var rects []geometry.Rect
	for i := int64(0); i < 12*side; i++ { // 4320 three-element spans at the full scale
		rects = append(rects, geometry.R1(i*8, i*8+2))
	}
	sparse := region.NewStore(geometry.FromRects(1, rects), fs)
	p.add("region.get_multispan_ns", perElem(func(pt geometry.Point) { sink += sparse.Get(f, pt) }, sparse.IndexSpace(), 32))

	halo := geometry.FromRects(2, []geometry.Rect{geometry.R2(0, 0, side-1, 1), geometry.R2(0, side-2, side-1, side-1)})
	dst := region.NewStore(tile.IndexSpace(), fs)
	const copies = 200
	wall := timeIt(func() {
		for i := 0; i < copies; i++ {
			dst.CopyFieldFrom(tile, f, halo)
		}
	})
	p.add("region.copy_field_mb_per_s", float64(copies*halo.Volume()*8)/(1<<20)/wall.Seconds())
	if sink == 42 {
		p.add("_sink", sink) // keeps the reads live
	}
}
