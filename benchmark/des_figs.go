package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/realm"
)

// desFigs is the product path: regenerating Figures 6–9 exactly as
// cmd/weakscale and the root BenchmarkFigure* do, one harness.RunFigure per
// figure with default options. The seed only orders the figures — the
// inputs are the paper's configurations, which have no random part.
var desFigs = workload{
	name: "des_figs",
	why:  "regenerates Figures 6-9 on the DES with default options: the event loop, spmd replay, rt analysis and baselines do the work; verify, kernels and realm/native are idle",
	prepare: func(sz sizes, seed int64) ([]cell, error) {
		var cells []cell
		for _, spec := range appSpecs {
			app, err := harness.AppByName(spec.name)
			if err != nil {
				return nil, err
			}
			if sz.figIters > 0 {
				app.Iters = sz.figIters
			}
			spec := spec
			cells = append(cells, cell{
				name: fmt.Sprintf("fig%d", spec.figure),
				ref:  true,
				run: func(p *pass) (string, error) {
					var series []harness.Series
					var err error
					if p.tr == nil {
						series, err = harness.RunFigure(app, sz.figNodes, nil)
					} else {
						series, err = figureByLayers(p, spec, app, sz.figNodes)
					}
					if err != nil {
						return "", err
					}
					for _, s := range series {
						for _, pt := range s.Points {
							if pt.Err != "" {
								return "", fmt.Errorf("%s@%d: %s", s.System, pt.Nodes, pt.Err)
							}
						}
					}
					return strings.TrimRight(harness.FormatFigure(app, series), "\n"), nil
				},
			})
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		return cells, nil
	},
	probes: func(sz sizes) []cell {
		cells := []cell{{name: "probe/raw-event-loop", run: func(p *pass) (string, error) { rawEventLoop(p); return "", nil }}}
		if sz.probeNodes == 0 {
			return cells
		}
		// The figures' own sweep goes on to 1024 nodes; one pass there takes
		// 14 s, so the benchmark measures that column once per traced run.
		for _, spec := range appSpecs {
			for _, sys := range []string{"regent-cr", "regent-nocr"} {
				spec, sys := spec, sys
				cells = append(cells, cell{
					name: fmt.Sprintf("probe/%s/%s/%d", spec.name, sys, sz.probeNodes),
					run: func(p *pass) (string, error) {
						_, err := regentCell(p.spansOnly(), spec, sys, sz.probeNodes, spec.iters)
						return "", err
					},
				})
			}
		}
		return cells
	},
}

// figureByLayers regenerates one figure's series cell by cell from the
// benchmark's own calls into each layer, so every layer's share is a span.
// The result must format to the same text harness.RunFigure produces. The
// Regent systems are driven layer by layer; an MPI baseline is a single call
// into the app's cost model, which is all of that layer there is.
func figureByLayers(p *pass, spec appSpec, app harness.App, nodes []int) ([]harness.Series, error) {
	defer p.tr.span(fmt.Sprintf("fig%d", spec.figure))()
	var out []harness.Series
	for _, sys := range app.Systems {
		s := harness.Series{System: sys}
		for _, n := range nodes {
			var per realm.Time
			var err error
			if sys == "regent-cr" || sys == "regent-nocr" {
				per, err = regentCell(p, spec, sys, n, app.Iters)
			} else {
				p.tr.at(n)
				done := p.tr.span("baseline.run")
				per, err = app.Measure(sys, n, app.Iters, bench.MeasureOpts{})
				done()
			}
			if err != nil {
				return nil, fmt.Errorf("%s@%d: %w", sys, n, err)
			}
			s.Points = append(s.Points, harness.Point{
				Nodes: n, PerIter: per,
				Throughput: app.UnitsPerNode / per.Seconds() / app.UnitScale,
			})
		}
		out = append(out, s)
	}
	return out, nil
}

// regentCell measures one (Regent system, node count) point of a figure.
func regentCell(p *pass, spec appSpec, sys string, n, iters int) (realm.Time, error) {
	prog, loop := spec.buildSpan(p.tr, sizePaper, n, n, iters)
	run := runImplicit
	if sys == "regent-cr" {
		run = runCR
	}
	out, err := run(p.tr, prog, loop, n, spec.tuning(n), runOpts{})
	if err != nil {
		return 0, err
	}
	p.count(out)
	return out.perIter, nil
}

// rawEventLoop times the simulator alone: a chain of two-input merges
// driven through the public Sim API, the same shape as the package's own
// BenchmarkSimEventThroughput. It costs what the event heap and the
// trigger path cost, with no engine on top.
func rawEventLoop(p *pass) {
	const chain = 1 << 16
	defer p.tr.span("realm.raw_loop")()
	s := realm.MustNewSim(realm.DefaultConfig(1))
	left := chain
	var step func()
	step = func() {
		if left == 0 {
			return
		}
		left--
		a, c := s.NewUserEvent(), s.NewUserEvent()
		s.OnTrigger(s.Merge(a, c), step)
		s.After(3, func() { s.Trigger(a) })
		s.After(7, func() { s.Trigger(c) })
	}
	step()
	wall := timeIt(func() { s.MustRun() })
	p.add("realm.raw_ns_per_event", float64(wall.Nanoseconds())/float64(s.Stats().Events))
}
