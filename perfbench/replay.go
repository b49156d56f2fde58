package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/moldyn"
	"irred/internal/obs"
	"irred/internal/rts"
	"irred/internal/service"
	"irred/internal/sparse"
)

// layers holds one op's replayed layer times (ns) and engine allocation.
type layers struct {
	decode, codec, materialize, key, light, update, engine, hash int64
	allocs, bytes                                                float64 // engine totals
	steps                                                        int
}

// replays is how many times each replay runs; each layer time reported is
// the median over them, so one cold run does not skew the split.
const replays = 3

// medianOf is the median of one field over repeated replays of an op.
func medianOf[T any](ls []T, get func(T) float64) float64 {
	xs := make([]float64, len(ls))
	for i, l := range ls {
		xs[i] = get(l)
	}
	return median(xs)
}

// medianLayers takes the per-field median of repeated replays of one op.
func medianLayers(ls []layers) layers {
	ns := func(get func(l layers) int64) int64 {
		return int64(medianOf(ls, func(l layers) float64 { return float64(get(l)) }))
	}
	return layers{
		decode:      ns(func(l layers) int64 { return l.decode }),
		codec:       ns(func(l layers) int64 { return l.codec }),
		materialize: ns(func(l layers) int64 { return l.materialize }),
		key:         ns(func(l layers) int64 { return l.key }),
		light:       ns(func(l layers) int64 { return l.light }),
		update:      ns(func(l layers) int64 { return l.update }),
		engine:      ns(func(l layers) int64 { return l.engine }),
		hash:        ns(func(l layers) int64 { return l.hash }),
		allocs:      medianOf(ls, func(l layers) float64 { return l.allocs }),
		bytes:       medianOf(ls, func(l layers) float64 { return l.bytes }),
		steps:       ls[0].steps,
	}
}

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, name string, root, id int, fn func()) int64 {
	sp := tr.begin(name, root, id)
	t0 := time.Now()
	fn()
	d := int64(time.Since(t0))
	tr.end(sp)
	return d
}

// engineRun times run inside a span and adds the Go heap allocations it
// made to l.
func engineRun(tr *tracer, root, id int, l *layers, run func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.engine += timed(tr, "rts.engine", root, id, run)
	runtime.ReadMemStats(&m1)
	l.allocs += float64(m1.Mallocs - m0.Mallocs)
	l.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
}

// built is a materialized job: how to describe its loop to the runtime,
// and how to run it on the engine the service would pick.
type built struct {
	loop func() *rts.Loop
	run  func(scheds []*inspector.Schedule) ([]float64, error)
}

func specDist(spec *service.JobSpec) inspector.Dist {
	if spec.Dist == "block" {
		return inspector.Block
	}
	return inspector.Cyclic
}

// pairContrib is the "pair" contribution of a raw job, as the service
// builds it.
func pairContrib(w []float64) rts.ContribFunc {
	return func(_, i int, out []float64) {
		out[0] = w[i]
		out[1] = -w[i]
	}
}

// materialize regenerates a named job's dataset (S or 2k, the sizes the
// workloads use) and kernel the way Service.executeNamed does; raw jobs
// carry their data, so only the loop is assembled. The engines update the
// returned vectors in place.
func materialize(spec *service.JobSpec) (*built, error) {
	ctx := context.Background()
	p, k, dist, steps := spec.P, spec.K, specDist(spec), spec.Steps
	switch spec.Kernel {
	case "mvm":
		mv := kernels.NewMVM(sparse.Generate(sparse.ClassS, uint64(spec.Seed)))
		return &built{func() *rts.Loop { return mv.Loop(p, k, dist) }, func(s []*inspector.Schedule) ([]float64, error) {
			n, err := mv.NewNativeFrom(s, p, k, dist)
			if err != nil {
				return nil, err
			}
			return n.X, n.RunContext(ctx, steps)
		}}, nil
	case "euler":
		eu := kernels.NewEuler(eulerMesh(spec.Seed), spec.Seed)
		return &built{func() *rts.Loop { return eu.Loop(p, k, dist) }, func(s []*inspector.Schedule) ([]float64, error) {
			n, q, err := eu.NewNativeFrom(s, p, k, dist)
			if err != nil {
				return nil, err
			}
			return q, n.RunContext(ctx, steps)
		}}, nil
	case "moldyn":
		md := kernels.NewMoldyn(moldyn.Paper2K(spec.Seed))
		return &built{func() *rts.Loop { return md.Loop(p, k, dist) }, func(s []*inspector.Schedule) ([]float64, error) {
			n, pos, _, err := md.NewNativeFrom(s, p, k, dist)
			if err != nil {
				return nil, err
			}
			return pos, n.RunContext(ctx, steps)
		}}, nil
	case "":
		l := &rts.Loop{
			Cfg:  inspector.Config{P: p, K: k, NumIters: spec.NumIters, NumElems: spec.NumElems, Dist: dist},
			Mode: rts.Reduce,
			Ind:  spec.Ind,
		}
		contrib := pairContrib(spec.Contrib.Weights)
		return &built{func() *rts.Loop { return l }, func(s []*inspector.Schedule) ([]float64, error) {
			if spec.Engine == "distributed" {
				d, err := rts.NewDistributedFrom(l, s)
				if err != nil {
					return nil, err
				}
				d.Contribs = contrib
				return d.RunContext(ctx, steps)
			}
			n, err := rts.NewNativeFrom(l, s)
			if err != nil {
				return nil, err
			}
			n.Contribs = contrib
			return n.X, n.RunContext(ctx, steps)
		}}, nil
	}
	return nil, fmt.Errorf("unknown kernel %q", spec.Kernel)
}

// replayJob calls, in Service.executeNamed/executeRaw order, the public
// functions one job goes through — spec decode, input materialization,
// schedule key, LightInspector, engine, result hash — and times each.
// The result must match the op's oracle.
func replayJob(o *op, tr *tracer) (layers, error) {
	id := int(opSeq.Add(1))
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	l := layers{steps: o.spec.Steps}
	var spec service.JobSpec
	var err error
	l.decode = timed(tr, "wire.spec_decode", root, id, func() { err = json.Unmarshal(o.body, &spec) })
	if err != nil {
		return l, err
	}
	var b *built
	l.materialize = timed(tr, "input.materialize", root, id, func() { b, err = materialize(&spec) })
	if err != nil {
		return l, err
	}
	var loop *rts.Loop
	l.key = timed(tr, "inspector.key", root, id, func() {
		loop = b.loop()
		inspector.ScheduleKey(loop.Cfg, loop.Ind...)
	})
	var scheds []*inspector.Schedule
	l.light = timed(tr, "inspector.light", root, id, func() { scheds, err = loop.Schedules() })
	if err != nil {
		return l, err
	}
	var x []float64
	engineRun(tr, root, id, &l, func() { x, err = b.run(scheds) })
	if err != nil {
		return l, err
	}
	var sha string
	l.hash = timed(tr, "service.hash", root, id, func() { sha = service.HashResult(x) })
	if sha != o.want {
		return l, fmt.Errorf("replay of %s: result %s, want %s", o.name, sha, o.want)
	}
	return l, nil
}

// replaySession replays a client's session from its base: open (inspect,
// clone, index), then each delta through the codec, Schedule.Update or a
// full re-inspection past the fallback, the engine and the result hash,
// as Service.ApplyDelta does. Every result must match its oracle.
func replaySession(base *op, deltas []*op, tr *tracer) ([]layers, error) {
	spec := base.spec
	ind := [][]int32{append([]int32(nil), spec.Ind[0]...), append([]int32(nil), spec.Ind[1]...)}
	spec.Ind = ind
	b, err := materialize(&spec)
	if err != nil {
		return nil, err
	}
	loop := b.loop()
	scheds, err := loop.Schedules()
	if err != nil {
		return nil, err
	}
	scheds = inspector.CloneSchedules(scheds)
	for _, sc := range scheds {
		sc.BeginIncremental()
	}
	out := make([]layers, 0, len(deltas))
	for _, o := range deltas {
		id := int(opSeq.Add(1))
		root := tr.begin("replay", -1, id)
		l := layers{steps: spec.Steps}
		var d *service.Delta
		l.codec = timed(tr, "wire.delta_codec", root, id, func() {
			var frame []byte
			if frame, err = service.EncodeDelta(o.delta); err == nil {
				d, err = service.DecodeDelta(frame)
			}
		})
		if err != nil {
			return nil, err
		}
		for r, row := range d.Values {
			for j, it := range d.Changed {
				ind[r][it] = row[j]
			}
		}
		if o.incremental() {
			l.update = timed(tr, "inspector.update", root, id, func() {
				for _, sc := range scheds {
					if err == nil {
						err = sc.Update(d.Changed, ind...)
					}
				}
			})
		} else {
			l.light = timed(tr, "inspector.light", root, id, func() {
				for p := range scheds {
					var sc *inspector.Schedule
					if sc, err = inspector.Light(loop.Cfg, p, ind...); err == nil {
						sc.BeginIncremental()
						scheds[p] = sc
					}
				}
			})
		}
		if err != nil {
			return nil, err
		}
		var x []float64
		engineRun(tr, root, id, &l, func() { x, err = b.run(scheds) })
		if err != nil {
			return nil, err
		}
		var sha string
		l.hash = timed(tr, "service.hash", root, id, func() { sha = service.HashResult(x) })
		tr.end(root)
		if sha != o.want {
			return nil, fmt.Errorf("replay of %s: result %s, want %s", o.name, sha, o.want)
		}
		out = append(out, l)
	}
	return out, nil
}

// irlLayers is one IRL program's replayed costs.
type irlLayers struct {
	light   int64   // LightInspector over every irregular plan
	native  int64   // hand-written kernel on the native engine, irlSteps steps
	seq     int64   // one sequential step of the hand-written kernel
	allocs  float64 // native engine allocations over irlSteps steps
	bytes   float64
	hasHand bool
}

// medianIRL takes the per-field median of repeated program replays.
func medianIRL(ls []irlLayers) irlLayers {
	ns := func(get func(l irlLayers) int64) int64 {
		return int64(medianOf(ls, func(l irlLayers) float64 { return float64(get(l)) }))
	}
	return irlLayers{
		light:   ns(func(l irlLayers) int64 { return l.light }),
		native:  ns(func(l irlLayers) int64 { return l.native }),
		seq:     ns(func(l irlLayers) int64 { return l.seq }),
		allocs:  medianOf(ls, func(l irlLayers) float64 { return l.allocs }),
		bytes:   medianOf(ls, func(l irlLayers) float64 { return l.bytes }),
		hasHand: ls[0].hasHand,
	}
}

// replayProgram times the inspections NewRunner pays, and the
// hand-written kernel's native and sequential steps on the same input.
// Phase spans of the native run land in ph.
func replayProgram(pr *program, tr *tracer, ph *obs.Tracer) (irlLayers, error) {
	var l irlLayers
	id := int(opSeq.Add(1))
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	u, err := codegen.CompileOptimized(pr.src)
	if err != nil {
		return l, err
	}
	env, err := pr.bind(u.Fissioned)
	if err != nil {
		return l, err
	}
	// Like Runner, inspect each licensed-shareable traversal once.
	inspected := map[string]bool{}
	for i, p := range u.Plans {
		if p.Kind != codegen.Irregular {
			continue
		}
		loop, _, err := p.BuildLoop(env, 2, 2, inspector.Cyclic)
		if err != nil {
			return l, err
		}
		key := inspector.ScheduleKey(loop.Cfg, loop.Ind...)
		if u.Reuse != nil && u.Reuse.ReuseOf(i) >= 0 && inspected[key] {
			continue
		}
		inspected[key] = true
		l.light += timed(tr, "inspector.light", root, id, func() { _, err = loop.Schedules() })
		if err != nil {
			return l, err
		}
	}
	if pr.native == nil {
		return l, nil
	}
	l.hasHand = true
	n, err := pr.native()
	if err != nil {
		return l, err
	}
	n.Trace = ph
	var ls layers
	engineRun(tr, root, id, &ls, func() { err = n.Run(irlSteps) })
	l.native, l.allocs, l.bytes = ls.engine, ls.allocs, ls.bytes
	l.seq = timed(tr, "rts.seq", root, id, pr.seqStep)
	return l, err
}

// phaseMS averages the engine's phase spans per sweep (one processor, one
// step): a sweep is counted by its phase-0 compute span.
func phaseMS(spans []obs.Span) (compute, copyMS, wait, update float64) {
	var sweeps int
	for _, s := range spans {
		d := ms(s.DurNS)
		switch s.Name {
		case obs.SpanCompute:
			compute += d
			if s.Phase == 0 {
				sweeps++
			}
		case obs.SpanCopy:
			copyMS += d
		case obs.SpanWait:
			wait += d
		case obs.SpanUpdate:
			update += d
		}
	}
	n := float64(sweeps)
	return ratio(compute, n), ratio(copyMS, n), ratio(wait, n), ratio(update, n)
}

// obsTracer is a phase-span ring large enough for the replayed native
// runs of every program.
func obsTracer() *obs.Tracer { return obs.New(1 << 16) }
