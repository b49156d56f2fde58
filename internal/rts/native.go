package rts

import (
	"context"
	"fmt"
	"sync"

	"irred/internal/algebra"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/obs"
)

// ContribFunc computes the contributions of iteration i for a reduce-mode
// loop: out has NumRef*comp slots, reference-major. p is the executing
// processor (for per-processor scratch state).
type ContribFunc func(p, i int, out []float64)

// BatchContribFunc computes the contributions of a block of reduce-mode
// iterations: out has len(iters)*NumRef*comp slots, iteration-major, each
// iteration's slots laid out as ContribFunc's. The engines pass at most
// ContribBlock iterations per call, and fold them in order afterwards.
type BatchContribFunc func(p int, iters []int32, out []float64)

// ContribBlock is the most iterations an engine evaluates per
// BatchContribFunc call; each worker owns one block buffer of this many
// iterations' contributions. It is the compiled evaluator's pass length,
// so one call runs each bytecode instruction once.
const ContribBlock = interp.BatchLen

// batched returns the block form of a contribution hook: b when set,
// otherwise f evaluated one iteration at a time into the block, or nil
// when neither is set. width is NumRef*comp.
func batched(b BatchContribFunc, f ContribFunc, width int) BatchContribFunc {
	if b != nil || f == nil {
		return b
	}
	return func(p int, iters []int32, out []float64) {
		for j, it := range iters {
			f(p, int(it), out[j*width:(j+1)*width])
		}
	}
}

// newBlocks allocates one contribution block buffer per processor.
func newBlocks(l *Loop) [][]float64 {
	out := make([][]float64, l.Cfg.P)
	for p := range out {
		out[p] = make([]float64, min(ContribBlock, l.Cfg.NumIters)*len(l.Ind)*l.Cost.comp())
	}
	return out
}

// ConsumeFunc handles one gather-mode iteration: vals holds the comp
// components of the rotated array at the iteration's reference.
type ConsumeFunc func(p, i int, vals []float64)

// UpdateFunc runs the regular between-sweep loop for processor p (position
// updates, vector ops over the processor's home elements). It runs under a
// full barrier: all sweep work is complete and no sweep work has started.
type UpdateFunc func(p, step int)

// Native executes a loop's phase schedules on real goroutines, one per
// simulated processor. The rotated array is shared; portion ownership
// rotates via channel tokens, so within any phase processors touch disjoint
// portions. The token handoff provides the happens-before edges that make
// this race-free.
type Native struct {
	Loop   *Loop
	Scheds []*inspector.Schedule

	// X is the rotated array, len NumElems*comp (component-minor). For
	// reduce loops it is the reduction array; for gather loops the read
	// vector.
	X []float64

	// Contribs or BatchContribs computes reduce-mode contributions; the
	// block form takes precedence when both are set.
	Contribs      ContribFunc
	BatchContribs BatchContribFunc
	Consume       ConsumeFunc
	Update        UpdateFunc

	// Verify enables the debug execution mode: every access to the shared
	// rotated array is checked against the ownership invariant — the target
	// element's portion must be owned by the executing processor during the
	// executing phase — and every buffered contribution must stay inside
	// the processor-private buffer. Run reports the first violation per
	// processor after the sweep completes (execution itself is unchanged,
	// so a verify run still finishes and still passes tokens).
	Verify bool

	// Trace, when non-nil, records one span per unit of phase work — the
	// rotation wait (obs.SpanWait), the copy loop (obs.SpanCopy), the main
	// loop (obs.SpanCompute) and the Update hook (obs.SpanUpdate) — tagged
	// with processor, phase, step and portion, on both the pipelined and
	// the barrier paths. NewNativeFrom seeds it from Loop.Trace; callers
	// may override before Run.
	Trace *obs.Tracer

	// CheckTargets guards every rotated-array and remote-buffer write (and
	// every gather read) with a range check against the processor's local
	// image, so corrupted schedules — a truncated cache entry, a bad
	// deserialization, hand-built phase programs — surface as a recorded
	// violation after the run instead of an index panic mid-sweep. It
	// defaults to on; NewNativeFrom turns it off when the loop carries a
	// bounds proof covering the indirection contents (Loop.Proof.IndProven
	// for this extent), which is what makes proof-carrying kernels
	// measurably faster. Callers may override either way before Run.
	CheckTargets bool

	bufs   [][]float64  // per-processor remote buffers, len BufLen*comp
	blocks [][]float64  // per-processor contribution blocks
	chans  []chan token // chans[p]: portions arriving at processor p
	body   *phaseBody   // the current run's phase body and violations
}

type token struct{ portion int }

// NewNative prepares a native run, building the LightInspector schedules.
func NewNative(l *Loop) (*Native, error) {
	scheds, err := l.Schedules()
	if err != nil {
		return nil, err
	}
	return NewNativeFrom(l, scheds)
}

// NewNativeFrom prepares a native run over previously built schedules —
// e.g. served from a schedule cache — skipping the LightInspector pass.
// scheds must be the full processor set for the loop: one schedule per
// processor in processor order, each built from the loop's configuration
// and indirection arrays. Schedules are only read during the run, so the
// same set may back any number of concurrent Natives.
func NewNativeFrom(l *Loop, scheds []*inspector.Schedule) (*Native, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(scheds) != l.Cfg.P {
		return nil, fmt.Errorf("rts: %d schedules for P = %d", len(scheds), l.Cfg.P)
	}
	for p, s := range scheds {
		if s == nil {
			return nil, fmt.Errorf("rts: schedule %d is nil", p)
		}
		if s.Proc != p {
			return nil, fmt.Errorf("rts: schedule %d is for processor %d", p, s.Proc)
		}
		if s.Cfg != l.Cfg {
			return nil, fmt.Errorf("rts: schedule %d built for %+v, loop wants %+v", p, s.Cfg, l.Cfg)
		}
		if s.NumRef != len(l.Ind) {
			return nil, fmt.Errorf("rts: schedule %d has %d references, loop has %d", p, s.NumRef, len(l.Ind))
		}
	}
	comp := l.Cost.comp()
	proven := l.Proof != nil && l.Proof.IndProven && l.Proof.NumElems == l.Cfg.NumElems
	n := &Native{
		Loop:         l,
		Scheds:       scheds,
		X:            make([]float64, l.Cfg.NumElems*comp),
		Trace:        l.Trace,
		CheckTargets: !proven,
		bufs:         newBufs(l, scheds),
		blocks:       newBlocks(l),
		chans:        make([]chan token, l.Cfg.P),
	}
	for p := range n.chans {
		n.chans[p] = make(chan token, l.Cfg.NumPhases()+1)
	}
	return n, nil
}

// newBufs allocates each processor's remote buffer, seeded with the
// combine's identity (float add's zero is make's).
func newBufs(l *Loop, scheds []*inspector.Schedule) [][]float64 {
	ident, _ := l.Combine.Identity()
	out := make([][]float64, len(scheds))
	for p, s := range scheds {
		out[p] = make([]float64, s.BufLen*l.Cost.comp())
		for i := 0; ident != 0 && i < len(out[p]); i++ {
			out[p][i] = ident
		}
	}
	return out
}

// Run executes steps timesteps: each is one full sweep of k*P phases
// followed by the Update hook (if any) under a global barrier. It returns
// an error if the mode's required callback is missing.
func (n *Native) Run(steps int) error {
	return n.RunContext(context.Background(), steps)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline expires, every worker stops at its next phase boundary or
// blocking portion receive and RunContext returns ctx.Err(). Cancellation
// cannot deadlock the token protocol — portion sends are buffered and
// never block, so a worker that exits early only starves receivers, which
// themselves select on ctx. After a cancelled run the rotated array holds
// partial sums and token positions are unspecified; the Native must not be
// reused.
func (n *Native) RunContext(ctx context.Context, steps int) error {
	l := n.Loop
	contribs := batched(n.BatchContribs, n.Contribs, len(l.Ind)*l.Cost.comp())
	switch l.Mode {
	case Reduce:
		if contribs == nil {
			return fmt.Errorf("rts: reduce-mode native run needs Contribs")
		}
	case Gather:
		if n.Consume == nil {
			return fmt.Errorf("rts: gather-mode native run needs Consume")
		}
	}
	P := l.Cfg.P
	done := ctx.Done()
	n.body = newPhaseBody(l, n.X, n.bufs, n.blocks, contribs, n.Consume, n.Verify, n.CheckTargets)
	var wg sync.WaitGroup
	if n.Update == nil {
		// Pure accumulation: sweeps need no barrier between timesteps —
		// portion tokens alone order every access, so processors pipeline
		// across sweeps exactly as EARTH fibers would.
		wg.Add(P)
		for p := 0; p < P; p++ {
			go func(p int) {
				defer wg.Done()
				for step := 0; step < steps; step++ {
					if !n.sweep(p, step, done) {
						return
					}
				}
			}(p)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		return n.body.err()
	}
	for step := 0; step < steps; step++ {
		wg.Add(P)
		for p := 0; p < P; p++ {
			go func(p int) {
				defer wg.Done()
				n.sweep(p, step, done)
			}(p)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
		wg.Add(P)
		for p := 0; p < P; p++ {
			go func(p int) {
				defer wg.Done()
				us := n.Trace.Begin()
				n.Update(p, step)
				n.Trace.End(obs.SpanUpdate, p, -1, step, -1, us)
			}(p)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return n.body.err()
}

// sweep runs processor p through timestep step's k*P phases. done, when
// non-nil, aborts the sweep at the next phase boundary or blocked portion
// receive; sweep reports whether it ran to completion.
func (n *Native) sweep(p, step int, done <-chan struct{}) bool {
	cfg := n.Loop.Cfg
	s := n.Scheds[p]
	kp := cfg.NumPhases()
	prev := (p - 1 + cfg.P) % cfg.P
	tr := n.Trace
	// wait receives the next portion token, traced as phase ph's rotation
	// wait, and reports false when done fires first.
	wait := func(ph int) bool {
		ws := tr.Begin()
		var tok token
		if done == nil {
			tok = <-n.chans[p]
		} else {
			select {
			case tok = <-n.chans[p]:
			case <-done:
				return false
			}
		}
		tr.End(obs.SpanWait, p, ph, step, tok.portion, ws)
		return true
	}

	for ph := 0; ph < kp; ph++ {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		// The first k phases use home portions, pre-placed initially and
		// re-consumed by the drain at the end of the previous sweep; later
		// phases receive their portion from processor p+1, in phase order.
		if ph >= cfg.K && !wait(ph) {
			return false
		}

		portion := cfg.PortionAt(p, ph)
		cs := tr.Begin()
		n.body.drain(s, p, ph)
		tr.End(obs.SpanCopy, p, ph, step, portion, cs)
		ms := tr.Begin()
		n.body.compute(s, p, ph)
		tr.End(obs.SpanCompute, p, ph, step, portion, ms)

		// Pass the portion on to processor p-1.
		n.chans[prev] <- token{portion: portion}
	}

	// Consume the k home portions returning at sweep end so the next
	// sweep's first k phases find them "pre-placed" — and so Update runs
	// only after all contributions to the home block have landed.
	for i := 0; i < cfg.K; i++ {
		if !wait(-1) {
			return false
		}
	}
	return true
}

// phaseBody is the copy loop and main loop of one phase, shared by the
// native engine and SimExec. A violating access is recorded and skipped,
// and the phase completes.
type phaseBody struct {
	violations
	l        *Loop
	x        []float64   // the rotated array
	bufs     [][]float64 // per-processor remote buffers
	blocks   [][]float64 // per-processor contribution blocks
	contribs BatchContribFunc
	consume  ConsumeFunc
	verify   bool // record ownership violations (Native.Verify)
	check    bool // range-check every access (Native.CheckTargets)
}

func newPhaseBody(l *Loop, x []float64, bufs, blocks [][]float64, contribs BatchContribFunc, consume ConsumeFunc, verify, check bool) *phaseBody {
	return &phaseBody{violations: newViolations(l.Cfg.P), l: l, x: x, bufs: bufs, blocks: blocks,
		contribs: contribs, consume: consume, verify: verify, check: check}
}

// violations records the first ownership (Verify) and range
// (CheckTargets) violation per processor. Each processor writes only its
// own slot, so no lock is needed.
type violations struct{ verifyErrs, checkErrs []error }

func newViolations(procs int) violations {
	return violations{make([]error, procs), make([]error, procs)}
}

func (v *violations) verifyFail(p int, format string, args ...any) {
	if v.verifyErrs[p] == nil {
		v.verifyErrs[p] = fmt.Errorf("rts: verify: "+format, args...)
	}
}

func (v *violations) checkFail(p int, format string, args ...any) {
	if v.checkErrs[p] == nil {
		v.checkErrs[p] = fmt.Errorf("rts: target check: "+format, args...)
	}
}

// err reports the first recorded violation: ownership violations first,
// then range violations, each in processor order.
func (v *violations) err() error {
	for _, err := range append(v.verifyErrs, v.checkErrs...) {
		if err != nil {
			return err
		}
	}
	return nil
}

// drain is the second (copy) loop of processor p's phase ph: it folds the
// buffered contributions into the just-arrived portion and resets the
// slots for the next sweep.
func (b *phaseBody) drain(s *inspector.Schedule, p, ph int) {
	cfg, buf := b.l.Cfg, b.bufs[p]
	comp := b.l.Cost.comp()
	localLen := s.LocalLen()
	op := b.l.Combine
	add := op.Kind == algebra.Add
	ident, _ := op.Identity()
	for _, cp := range s.Phases[ph].Copies {
		if b.verify && (int(cp.Buf) < cfg.NumElems || int(cp.Buf) >= localLen) {
			b.verifyFail(p, "proc %d phase %d: drain reads %d outside the buffer [%d,%d)", p, ph, cp.Buf, cfg.NumElems, localLen)
			continue
		}
		if b.verify && cfg.PhaseOf(p, int(cp.Elem)) != ph {
			b.verifyFail(p, "proc %d phase %d: drain writes element %d, whose portion is owned in phase %d", p, ph, cp.Elem, cfg.PhaseOf(p, int(cp.Elem)))
		}
		if b.check && (int(cp.Elem) < 0 || int(cp.Elem) >= cfg.NumElems ||
			int(cp.Buf) < cfg.NumElems || int(cp.Buf) >= localLen) {
			b.checkFail(p, "proc %d phase %d: drain %d -> %d outside image (elems %d, local %d)",
				p, ph, cp.Buf, cp.Elem, cfg.NumElems, localLen)
			continue
		}
		eb := int(cp.Elem) * comp
		bb := (int(cp.Buf) - cfg.NumElems) * comp
		for c := 0; c < comp; c++ {
			if add {
				b.x[eb+c] += buf[bb+c]
				buf[bb+c] = 0
			} else {
				b.x[eb+c] = op.Fold(b.x[eb+c], buf[bb+c])
				buf[bb+c] = ident
			}
		}
	}
}

// compute is the main loop of processor p's phase ph. Reduce mode
// evaluates contributions a block of at most ContribBlock iterations at a
// time into p's block buffer, then folds them iteration by iteration in
// phase order — the fold order of evaluating one iteration at a time.
// Gather mode consumes one iteration at a time.
func (b *phaseBody) compute(s *inspector.Schedule, p, ph int) {
	l, cfg, buf, block := b.l, b.l.Cfg, b.bufs[p], b.blocks[p]
	comp := l.Cost.comp()
	localLen := s.LocalLen()
	op := l.Combine
	prog := &s.Phases[ph]
	switch l.Mode {
	case Reduce:
		if b.contribs == nil {
			return
		}
		// Float addition without ownership checks, the common case, folds
		// through a loop with nothing in it but the optional range check.
		fast := op.Kind == algebra.Add && !b.verify
		x, nelems, check, w := b.x, cfg.NumElems, b.check, len(prog.Ind)*comp
		for lo := 0; lo < len(prog.Iters); lo += ContribBlock {
			iters := prog.Iters[lo:min(lo+ContribBlock, len(prog.Iters))]
			b.contribs(p, iters, block)
			if fast {
				for j, it := range iters {
					src := j * w
					for r := range prog.Ind {
						tgt := int(prog.Ind[r][lo+j])
						if check && (tgt < 0 || tgt >= localLen) {
							b.checkFail(p, "proc %d phase %d: iteration %d writes %d outside the local image [0,%d)", p, ph, it, tgt, localLen)
							continue
						}
						if tgt < nelems {
							for c := 0; c < comp; c++ {
								x[tgt*comp+c] += block[src+r*comp+c]
							}
						} else {
							for c, bb := 0, (tgt-nelems)*comp; c < comp; c++ {
								buf[bb+c] += block[src+r*comp+c]
							}
						}
					}
				}
				continue
			}
			for j, it := range iters {
				src := j * w
				for r := range prog.Ind {
					tgt := int(prog.Ind[r][lo+j])
					if check && (tgt < 0 || tgt >= localLen) {
						b.checkFail(p, "proc %d phase %d: iteration %d writes %d outside the local image [0,%d)", p, ph, it, tgt, localLen)
						continue
					}
					acc, at := x, tgt*comp
					if tgt < nelems {
						if b.verify && cfg.PhaseOf(p, tgt) != ph {
							b.verifyFail(p, "proc %d phase %d: iteration %d writes element %d, whose portion is owned in phase %d", p, ph, it, tgt, cfg.PhaseOf(p, tgt))
						}
					} else {
						if b.verify && tgt >= localLen {
							b.verifyFail(p, "proc %d phase %d: iteration %d writes %d outside the local image [0,%d)", p, ph, it, tgt, localLen)
							continue
						}
						acc, at = buf, (tgt-nelems)*comp
					}
					for c := 0; c < comp; c++ {
						acc[at+c] = op.Fold(acc[at+c], block[src+r*comp+c])
					}
				}
			}
		}
	case Gather:
		if b.consume == nil {
			return
		}
		for j, it := range prog.Iters {
			tgt := int(prog.Ind[0][j])
			if b.check && (tgt < 0 || tgt >= cfg.NumElems) {
				b.checkFail(p, "proc %d phase %d: iteration %d gathers %d outside the rotated array [0,%d)", p, ph, it, tgt, cfg.NumElems)
				continue
			}
			if b.verify && tgt >= cfg.NumElems {
				b.verifyFail(p, "proc %d phase %d: iteration %d gathers %d outside the rotated array [0,%d)", p, ph, it, tgt, cfg.NumElems)
				continue
			}
			if b.verify && cfg.PhaseOf(p, tgt) != ph {
				b.verifyFail(p, "proc %d phase %d: iteration %d gathers element %d, whose portion is owned in phase %d", p, ph, it, tgt, cfg.PhaseOf(p, tgt))
			}
			b.consume(p, int(it), b.x[tgt*comp:tgt*comp+comp])
		}
	}
}
