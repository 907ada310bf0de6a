package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cr"
	"repro/internal/realm"
)

// desPaths drives the same spmd/rt/realm layers as des_figs through the
// paths the figures do not take: the barrier lowering, the interpreter
// (NoTrace), per-shard capture (NoShare), coalesced exchange plans on an
// overdecomposed program, checkpoint/restart after a seeded crash, and
// Real-mode execution of the small configurations. A change to the replay
// path that costs one of these shows here and not in des_figs.
var desPaths = workload{
	name: "des_paths",
	why:  "same spmd/rt/realm layers through the non-default paths (barrier, NoTrace, NoShare, Agg at 2x overdecomposition, crash recovery, Real mode), which a replay-path rewrite changes",
	prepare: func(sz sizes, seed int64) ([]cell, error) {
		rng := rand.New(rand.NewSource(seed))
		var cells []cell
		for _, spec := range appSpecs {
			spec := spec
			for _, n := range sz.pathNodes {
				n := n
				for _, v := range []struct {
					name string
					o    runOpts
				}{
					{"cr-barrier", runOpts{sync: cr.BarrierSync}},
					{"cr-notrace", runOpts{noTrace: true}},
					{"cr-noshare", runOpts{noShare: true}},
				} {
					v := v
					cells = append(cells, cell{
						name: fmt.Sprintf("%s/%s/%d", spec.name, v.name, n), ref: true,
						run: func(p *pass) (string, error) { return modeledCR(p, spec, n, n, v.o) },
					})
				}
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/nocr-notrace/%d", spec.name, n), ref: true,
					run: func(p *pass) (string, error) {
						prog, loop := spec.buildSpan(p.tr, sizePaper, n, n, figIters(p.sz, spec))
						out, err := runImplicit(p.tr, prog, loop, n, spec.tuning(n), runOpts{noTrace: true})
						if err != nil {
							return "", err
						}
						p.count(out)
						return modeledText(out), nil
					},
				})
			}
			for _, n := range sz.aggNodes {
				n := n
				for _, sync := range []cr.SyncMode{cr.PointToPoint, cr.BarrierSync} {
					sync := sync
					cells = append(cells, cell{
						name: fmt.Sprintf("%s/agg-%v/%d", spec.name, sync, n), ref: true,
						// Two pieces per shard, so every shard produces several
						// pairs toward a neighbour and groups really merge.
						run: func(p *pass) (string, error) {
							return modeledCR(p, spec, 2*n, n, runOpts{agg: true, sync: sync})
						},
					})
				}
			}
			for _, n := range sz.crashNodes {
				n := n
				// A non-head node dies at one of its first launches; every
				// app issues at least 20 launches per node, so the crash
				// always lands and the run must recover from it.
				crash := realm.LaunchCrash{Node: 1 + rng.Intn(n-1), AtLaunch: uint64(3 + rng.Intn(10))}
				cells = append(cells, cell{
					name: fmt.Sprintf("%s/crash/%d", spec.name, n),
					run: func(p *pass) (string, error) {
						prog, loop := spec.buildSpan(p.tr, sizePaper, n, n, spec.iters)
						out, err := runCR(p.tr, prog, loop, n, spec.tuning(n), runOpts{
							faults: &realm.FaultPlan{Seed: uint64(seed), LaunchCrashes: []realm.LaunchCrash{crash}},
						})
						if err != nil {
							return "", err
						}
						p.count(out)
						f := out.faults
						if f == nil || len(f.Crashes) != 1 || f.Crashes[0].Node != crash.Node || f.Restarts < 1 {
							return "", fmt.Errorf("crash %+v: fault report %+v, want exactly that crash and a restart", crash, f)
						}
						return "", nil
					},
				})
			}
			cells = append(cells, cell{
				name: spec.name + "/real/4", ref: true,
				// The reference is the checksum of ir.ExecSequential's
				// stores, so this is bitwise equality with the oracle.
				oracle: func() string {
					prog, _ := spec.build(sizeSmall, 4, 4)
					return seqChecksum(prog)
				},
				run: func(p *pass) (string, error) {
					prog, loop := spec.buildSpan(p.tr, sizeSmall, 4, 4, 4)
					out, err := runCR(p.tr, prog, loop, 4, spec.tuning(4), runOpts{real: true})
					if err != nil {
						return "", err
					}
					p.count(out)
					return out.sum, nil
				},
			})
		}
		return cells, nil
	},
	probes: func(sz sizes) []cell {
		return []cell{{name: "probe/raw-event-loop", run: func(p *pass) (string, error) { rawEventLoop(p); return "", nil }}}
	},
}

// figIters is the iteration count of the Modeled-mode cells at a scale.
func figIters(sz sizes, spec appSpec) int {
	if sz.figIters > 0 {
		return sz.figIters
	}
	return spec.iters
}

// modeledCR builds the app at the given piece count and runs it under
// control replication on `shards` shards in Modeled mode.
func modeledCR(p *pass, spec appSpec, pieces, shards int, o runOpts) (string, error) {
	prog, loop := spec.buildSpan(p.tr, sizePaper, shards, pieces, figIters(p.sz, spec))
	out, err := runCR(p.tr, prog, loop, shards, spec.tuning(shards), o)
	if err != nil {
		return "", err
	}
	p.count(out)
	if o.agg && out.stats.AggSavedMessages == 0 {
		return "", fmt.Errorf("aggregation merged nothing at %d pieces on %d shards", pieces, shards)
	}
	return modeledText(out), nil
}

// modeledText is what a Modeled-mode cell is compared on: the virtual time
// per iteration and the traffic, all of which the DES repeats exactly.
func modeledText(out *runOut) string {
	return fmt.Sprintf("per_iter_ns=%d messages=%d bytes_sent=%d", out.perIter, out.stats.Messages, out.stats.BytesSent)
}
