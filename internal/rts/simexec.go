package rts

import "irred/internal/inspector"

// SimExec attaches real computation to a simulated run: each phase fiber,
// on completion, executes its phase program (copy loop + main loop) against
// shared data, and each update fiber runs the Update hook. Because the
// event engine is single-threaded and fibers fire in dependence order, a
// correct fiber graph produces exactly the sequential reduction — so
// executing under SimExec validates the *simulated program's* dataflow
// wiring (slots, portion routing, home returns), not just the native
// engine's.
type SimExec struct {
	// Contribs computes reduce-mode contributions, as in the native
	// engine.
	Contribs ContribFunc
	// Consume handles gather-mode iterations.
	Consume ConsumeFunc
	// Update runs per processor at each timestep boundary.
	Update UpdateFunc
	// X is the rotated array, len NumElems*comp. Allocated by RunSim when
	// nil and an exec is attached.
	X []float64

	// Verify enables the debug execution mode: every simulated write to the
	// shared array is checked against the ownership invariant (the target
	// element's portion must be owned by the fiber's processor during the
	// fiber's phase). The first violation fails the sim engine, aborting
	// the run, and is reported by RunSim.
	Verify bool

	body *phaseBody
}

// Err reports the first ownership violation of a verify run, or nil.
func (ex *SimExec) Err() error {
	if ex.body == nil {
		return nil
	}
	return ex.body.err()
}

// prepare sizes the execution state for the given loop and schedules.
func (ex *SimExec) prepare(l *Loop, scheds []*inspector.Schedule) {
	if ex.X == nil {
		ex.X = make([]float64, l.Cfg.NumElems*l.Cost.comp())
	}
	contribs := batched(nil, ex.Contribs, len(l.Ind)*l.Cost.comp())
	ex.body = newPhaseBody(l, ex.X, newBufs(l, scheds), newBlocks(l), contribs, ex.Consume, ex.Verify, false)
}
