package rts

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"irred/internal/algebra"
	"irred/internal/fault"
	"irred/internal/inspector"
	"irred/internal/obs"
)

// Distributed executes a reduce-mode loop with true message-passing
// semantics: every processor owns a private local image of the rotated
// array (full element range + its remote buffer, exactly the paper's
// memory layout), and portion *contents* are copied between images through
// the channels — no element of the reduction array is ever shared. This is
// the paper's distributed-memory model verbatim; the shared-memory Native
// engine is the fast path, and agreement between the two (and the
// sequential kernel) pins down that the algorithm relies only on the
// messages it sends.
//
// The rotation protocol is hardened: every payload carries a phase/sweep
// tag and an FNV-1a checksum over its contents, each receive is guarded by
// a watchdog with bounded recovery from the sender's retransmit buffer,
// and sweeps run under a barrier so the engine can checkpoint the
// assembled array at sweep boundaries. That checkpoint is what makes every
// fault class recoverable from purely local information:
//
//   - a dropped, corrupted or delayed payload is re-fetched from the
//     sender's retransmit buffer (the paper's schedule says exactly which
//     portion must arrive, so the receiver knows what to ask for);
//   - a transiently failed sweep (kernel panic, rotation timeout) is
//     replayed from the last checkpoint — contributions are pure functions
//     of the global iteration number, so replay is exact;
//   - a permanently lost processor degrades the machine to P-1: the
//     ownership map (k*p+phase) mod (k*P) is a pure function of the shape,
//     so the survivors recompute their schedules locally and resume from
//     the checkpoint with no data exchange beyond it.
type Distributed struct {
	Loop   *Loop
	Scheds []*inspector.Schedule
	// Contribs or BatchContribs computes the contributions; the block
	// form takes precedence when both are set.
	Contribs      ContribFunc
	BatchContribs BatchContribFunc

	// Inject, when non-nil, supplies deterministic chaos: payload faults
	// on every rotation send, stalls at phase boundaries, kernel panics,
	// and permanent kills. Nil costs one pointer check per decision.
	Inject *fault.Injector

	// Watchdog bounds how long a receive waits before recovering the
	// expected portion from the sender's retransmit buffer. Zero picks
	// DefaultWatchdog.
	Watchdog time.Duration
	// MaxResend bounds recovery attempts per receive before the receive
	// is declared failed (peer loss or rotation timeout). Zero picks
	// DefaultMaxResend.
	MaxResend int
	// MaxRecoveries bounds whole-sweep replays and shape degradations per
	// Run. Zero picks DefaultMaxRecoveries.
	MaxRecoveries int

	// CheckpointEvery, when > 0 with Checkpoint set, invokes Checkpoint
	// with the assembled array after every CheckpointEvery-th sweep.
	CheckpointEvery int
	// Checkpoint receives (completed sweeps, assembled array). The array
	// is a private copy. An error is non-fatal: the run continues, it just
	// loses that resume point.
	Checkpoint func(sweep int, x []float64) error

	// Trace, when non-nil, records resend and recovery spans plus
	// chaos/* events for every injected fault.
	Trace *obs.Tracer

	images [][]float64 // per-processor local image, LocalLen*comp
	blocks [][]float64 // per-processor contribution blocks
	chans  []chan payload
	outbox [][]outSlot   // [proc][portion] retransmit buffer
	dead   []atomic.Bool // permanently lost processors

	seed []float64 // initial array contents (resume support), may be nil
}

// Hardening defaults: generous enough that a healthy but heavily loaded
// host never trips them, tight enough that an injected fault recovers in
// tens of milliseconds.
const (
	DefaultWatchdog      = 250 * time.Millisecond
	DefaultMaxResend     = 4
	DefaultMaxRecoveries = 16
)

// payload is one rotation message: the portion contents plus the tags and
// checksum that make loss, reordering, duplication and corruption
// detectable at the receiver.
type payload struct {
	portion int
	phase   int    // sender's phase, for diagnostics
	sweep   int    // sweep tag: stale/duplicate payloads are discarded by it
	sum     uint64 // FNV-1a over the data bits
	data    []float64
}

// outSlot is the sender-side retransmit buffer for one portion: the last
// payload shipped, so a receiver can recover it after a drop, corruption
// or delay. It models the unacknowledged-send buffer of an acked
// protocol; the acknowledgement is implicit in the next sweep's barrier.
type outSlot struct {
	mu    sync.Mutex
	sweep int
	ok    bool
	data  []float64
}

// RotationError reports a rotation protocol violation: the wrong portion,
// a checksum mismatch that outlived every resend, or a receive that timed
// out past all recovery attempts. It carries enough structure for a
// supervisor to decide between replay and abort.
type RotationError struct {
	Proc     int    // receiving processor
	Phase    int    // receiving phase
	Sweep    int    // sweep tag
	Expected int    // portion the schedule requires
	Got      int    // portion that arrived (-1 for a timeout)
	Reason   string // "timeout" | "checksum" | "portion"
}

func (e *RotationError) Error() string {
	return fmt.Sprintf("rts: rotation %s: processor %d phase %d sweep %d expected portion %d, got %d",
		e.Reason, e.Proc, e.Phase, e.Sweep, e.Expected, e.Got)
}

// PeerLostError reports a permanently dead processor: its payloads stopped
// and its retransmit buffer is unreachable. Run reacts by degrading the
// machine to P-1 survivors.
type PeerLostError struct{ Proc int }

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("rts: processor %d lost permanently", e.Proc)
}

// PanicError reports a recovered kernel panic on one processor's sweep.
type PanicError struct {
	Proc  int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rts: processor %d panicked: %v", e.Proc, e.Value)
}

// errAborted marks a worker that stopped because another worker failed
// (or the context was cancelled); it is never the root cause.
var errAborted = errors.New("rts: sweep aborted")

// NewDistributed prepares a message-passing run.
func NewDistributed(l *Loop) (*Distributed, error) {
	if l.Mode != Reduce {
		return nil, fmt.Errorf("rts: distributed engine supports reduce loops")
	}
	scheds, err := l.Schedules()
	if err != nil {
		return nil, err
	}
	return NewDistributedFrom(l, scheds)
}

// NewDistributedFrom prepares a message-passing run over previously built
// schedules — e.g. served from a schedule cache — skipping the
// LightInspector pass. scheds must be the loop's full processor set in
// processor order.
func NewDistributedFrom(l *Loop, scheds []*inspector.Schedule) (*Distributed, error) {
	if l.Mode != Reduce {
		return nil, fmt.Errorf("rts: distributed engine supports reduce loops")
	}
	if l.Combine.Kind != algebra.Add {
		// Portion images merge with a flat += during recovery rotation;
		// generalizing that path is future work, so refuse loudly rather
		// than silently mis-folding.
		return nil, fmt.Errorf("rts: distributed engine folds with += only; combine %s is not supported", l.Combine)
	}
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
	d := &Distributed{Loop: l, Scheds: scheds, Trace: l.Trace, blocks: newBlocks(l)}
	d.rebuild()
	return d, nil
}

// rebuild (re)allocates images, channels, retransmit buffers and liveness
// flags for the current Loop/Scheds — used at construction, after every
// transient recovery (to discard in-flight state), and after a shape
// degradation. Images are seeded from d.seed when present.
func (d *Distributed) rebuild() {
	l := d.Loop
	comp := l.Cost.comp()
	P := l.Cfg.P
	kp := l.Cfg.NumPhases()
	d.images = make([][]float64, P)
	d.chans = make([]chan payload, P)
	d.outbox = make([][]outSlot, P)
	d.dead = make([]atomic.Bool, P)
	for p := 0; p < P; p++ {
		d.images[p] = make([]float64, d.Scheds[p].LocalLen()*comp)
		if d.seed != nil {
			copy(d.images[p], d.seed)
		}
		// Capacity holds a full sweep of primary sends plus injected
		// duplicates and late deliveries without ever blocking a healthy
		// sender behind stale junk.
		d.chans[p] = make(chan payload, 2*kp+4)
		d.outbox[p] = make([]outSlot, kp)
	}
}

// Seed sets the initial contents of the rotated array (length
// NumElems*comp), so a run can resume from a checkpoint instead of zero.
func (d *Distributed) Seed(x []float64) error {
	want := d.Loop.Cfg.NumElems * d.Loop.Cost.comp()
	if len(x) != want {
		return fmt.Errorf("rts: seed length %d, want %d", len(x), want)
	}
	d.seed = append([]float64(nil), x...)
	for p := range d.images {
		copy(d.images[p], d.seed)
	}
	return nil
}

func (d *Distributed) watchdog() time.Duration {
	if d.Watchdog > 0 {
		return d.Watchdog
	}
	return DefaultWatchdog
}

func (d *Distributed) maxResend() int {
	if d.MaxResend > 0 {
		return d.MaxResend
	}
	return DefaultMaxResend
}

func (d *Distributed) maxRecoveries() int {
	if d.MaxRecoveries > 0 {
		return d.MaxRecoveries
	}
	return DefaultMaxRecoveries
}

// Run executes `steps` sweeps and returns the assembled reduction array.
func (d *Distributed) Run(steps int) ([]float64, error) {
	return d.RunContext(context.Background(), steps)
}

// RunContext is Run with cancellation. Sweeps run under a barrier; after
// each one the engine assembles the array into its checkpoint, so any
// fault inside sweep s is recovered by replaying sweep s from the state
// after sweep s-1. Contributions are pure functions of the iteration
// number, so replay is bit-exact.
func (d *Distributed) RunContext(ctx context.Context, steps int) ([]float64, error) {
	contribs := batched(d.BatchContribs, d.Contribs, len(d.Loop.Ind)*d.Loop.Cost.comp())
	if contribs == nil {
		return nil, fmt.Errorf("rts: distributed run needs Contribs")
	}
	// The running checkpoint: state after `sweep` completed sweeps.
	comp := d.Loop.Cost.comp()
	checkpoint := make([]float64, d.Loop.Cfg.NumElems*comp)
	if d.seed != nil {
		copy(checkpoint, d.seed)
	}
	recoveries := 0
	for sweep := 0; sweep < steps; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		err := d.runSweep(ctx, sweep, contribs)
		if err == nil {
			d.assemble(checkpoint)
			sweep++
			if d.CheckpointEvery > 0 && d.Checkpoint != nil && sweep%d.CheckpointEvery == 0 {
				cs := d.Trace.Begin()
				ckErr := d.Checkpoint(sweep, append([]float64(nil), checkpoint...))
				d.Trace.End(obs.SpanCheckpoint, -1, -1, sweep, -1, cs)
				// A failed checkpoint write only loses a resume point.
				_ = ckErr
			}
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		recoveries++
		if recoveries > d.maxRecoveries() {
			return nil, fmt.Errorf("rts: giving up after %d recoveries: %w", recoveries-1, err)
		}
		rs := d.Trace.Begin()
		var lost *PeerLostError
		if errors.As(err, &lost) {
			// Permanent loss: degrade to P-1 survivors. The ownership map
			// is a pure function of (P, k), so the survivors rebuild their
			// schedules locally and resume from the checkpoint.
			if err := d.degrade(checkpoint); err != nil {
				return nil, err
			}
		} else {
			// Transient (panic, rotation timeout/violation): discard all
			// in-flight state and replay the sweep from the checkpoint.
			d.seed = append(d.seed[:0], checkpoint...)
			d.rebuild()
		}
		d.Inject.Recovered()
		d.Trace.End(obs.SpanRecover, -1, -1, sweep, -1, rs)
	}
	out := make([]float64, len(checkpoint))
	copy(out, checkpoint)
	return out, nil
}

// degrade rebuilds the engine for P-1 processors from the checkpoint.
func (d *Distributed) degrade(checkpoint []float64) error {
	old := d.Loop
	newP := old.Cfg.P - 1
	if newP < 1 {
		return fmt.Errorf("rts: no surviving processors")
	}
	cfg := old.Cfg
	cfg.P = newP
	nl := &Loop{Cfg: cfg, Mode: old.Mode, Ind: old.Ind, Cost: old.Cost, Trace: old.Trace, Proof: old.Proof}
	scheds, err := nl.Schedules()
	if err != nil {
		return fmt.Errorf("rts: degrading to P=%d: %w", newP, err)
	}
	d.Loop = nl
	d.Scheds = scheds
	d.seed = append(d.seed[:0], checkpoint...)
	d.rebuild()
	d.Trace.Event("chaos/degrade", newP, -1, -1, -1)
	return nil
}

// runSweep drives all P workers through one barrier-synchronized sweep
// and returns the most specific worker error (peer loss > panic >
// rotation error), or nil when every worker completed.
func (d *Distributed) runSweep(ctx context.Context, sweep int, contribs BatchContribFunc) error {
	P := d.Loop.Cfg.P
	abort := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(abort) }) }
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				cancel()
			case <-stop:
			}
		}()
	}

	errs := make([]error, P)
	var wg sync.WaitGroup
	wg.Add(P)
	for p := 0; p < P; p++ {
		go func(p int) {
			defer wg.Done()
			if err := d.sweepOne(p, sweep, contribs, abort); err != nil {
				errs[p] = err
				cancel()
			}
		}(p)
	}
	wg.Wait()

	var best error
	rank := func(err error) int {
		var lost *PeerLostError
		var pan *PanicError
		switch {
		case err == nil:
			return -1
		case errors.As(err, &lost):
			return 3
		case errors.As(err, &pan):
			return 2
		case errors.Is(err, errAborted):
			return 0
		default:
			return 1
		}
	}
	for _, err := range errs {
		if err != nil && rank(err) > rank(best) {
			best = err
		}
	}
	if best != nil && errors.Is(best, errAborted) {
		best = nil // all victims, no root cause: only possible via ctx
	}
	return best
}

// sweepOne runs processor p through sweep's k*P phases under the hardened
// protocol. Any error aborts the whole sweep (the caller replays or
// degrades); a recovered payload or kernel panic never corrupts state
// because the sweep either completes exactly or is replayed entirely.
func (d *Distributed) sweepOne(p, sweep int, contribs BatchContribFunc, abort <-chan struct{}) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Proc: p, Value: r, Stack: debug.Stack()}
		}
	}()
	l := d.Loop
	cfg := l.Cfg
	comp := l.Cost.comp()
	s := d.Scheds[p]
	img := d.images[p]
	kp := cfg.NumPhases()
	prev := (p - 1 + cfg.P) % cfg.P
	block, w := d.blocks[p], len(l.Ind)*comp

	for ph := 0; ph < kp; ph++ {
		select {
		case <-abort:
			return errAborted
		default:
		}
		if d.Inject.Killed(p, ph, sweep) {
			d.dead[p].Store(true)
			d.Trace.Event("chaos/kill", p, ph, sweep, -1)
			return &PeerLostError{Proc: p}
		}
		if stall := d.Inject.Stall(p, ph, sweep); stall > 0 {
			d.Trace.Event("chaos/stall", p, ph, sweep, -1)
			time.Sleep(stall)
		}

		q := cfg.PortionAt(p, ph)
		lo, hi := cfg.PortionBounds(q)
		if ph >= cfg.K {
			data, err := d.recvPortion(p, ph, sweep, q, abort)
			if err != nil {
				return err
			}
			copy(img[lo*comp:hi*comp], data)
		}

		prog := &s.Phases[ph]
		for _, cp := range prog.Copies {
			eb := int(cp.Elem) * comp
			bb := int(cp.Buf) * comp
			for c := 0; c < comp; c++ {
				img[eb+c] += img[bb+c]
				img[bb+c] = 0
			}
		}
		for lo := 0; lo < len(prog.Iters); lo += ContribBlock {
			iters := prog.Iters[lo:min(lo+ContribBlock, len(prog.Iters))]
			for _, it := range iters {
				d.Inject.KernelPanic(p, int(it))
			}
			contribs(p, iters, block)
			for j := range iters {
				src := j * w
				for r := range prog.Ind {
					tgt := int(prog.Ind[r][lo+j]) * comp
					for c := 0; c < comp; c++ {
						img[tgt+c] += block[src+r*comp+c]
					}
				}
			}
		}

		// Ship the portion's contents to processor p-1 (a real copy: the
		// wire payload the paper's BLKMOV_SYNC carries).
		data := make([]float64, (hi-lo)*comp)
		copy(data, img[lo*comp:hi*comp])
		if err := d.sendPortion(p, prev, ph, sweep, q, data, abort); err != nil {
			return err
		}
	}

	// Re-install the k home portions returning at sweep end. Arrival
	// order is fixed by the rotation: drain slot j carries PortionAt(p, j).
	for j := 0; j < cfg.K; j++ {
		want := cfg.PortionAt(p, j)
		data, err := d.recvPortion(p, kp+j, sweep, want, abort)
		if err != nil {
			return err
		}
		lo, hi := cfg.PortionBounds(want)
		copy(img[lo*comp:hi*comp], data)
	}
	return nil
}

// sendPortion ships one payload to processor dst, applying any injected
// payload fault. Dropped and corrupted payloads still land intact in the
// retransmit buffer — they model wire faults, not sender-memory faults.
func (d *Distributed) sendPortion(p, dst, ph, sweep, portion int, data []float64, abort <-chan struct{}) error {
	slot := &d.outbox[p][portion]
	slot.mu.Lock()
	slot.sweep = sweep
	slot.ok = true
	slot.data = data
	slot.mu.Unlock()

	msg := payload{portion: portion, phase: ph, sweep: sweep, sum: checksum(data), data: data}
	f := d.Inject.Payload(p, ph, sweep, portion)
	ch := d.chans[dst]
	if f.Drop {
		d.Trace.Event("chaos/drop", p, ph, sweep, portion)
		return nil
	}
	if f.Corrupt {
		d.Trace.Event("chaos/corrupt", p, ph, sweep, portion)
		corrupted := append([]float64(nil), data...)
		if len(corrupted) > 0 {
			corrupted[0] = math.Float64frombits(math.Float64bits(corrupted[0]) ^ 0xdeadbeef)
		} else {
			msg.sum ^= 0xdeadbeef // zero-length portion: corrupt the checksum itself
		}
		msg.data = corrupted
	}
	deliver := func() error {
		select {
		case ch <- msg:
			return nil
		case <-abort:
			return errAborted
		}
	}
	if f.Delay > 0 {
		d.Trace.Event("chaos/delay", p, ph, sweep, portion)
		// Late delivery happens off the worker goroutine (the sender is
		// not stalled — the wire is). The channel value is captured, so a
		// delivery that outlives a recovery lands in the abandoned channel.
		go func(ch chan payload, msg payload, delay time.Duration) {
			time.Sleep(delay)
			select {
			case ch <- msg:
			default:
			}
		}(ch, msg, f.Delay)
	} else if err := deliver(); err != nil {
		return err
	}
	if f.Duplicate {
		d.Trace.Event("chaos/dup", p, ph, sweep, portion)
		select {
		case ch <- msg:
		default: // a dup that finds the channel full is just lost
		}
	}
	return nil
}

// recvPortion receives the payload for (want, sweep) at processor p's
// phase ph, discarding stale or duplicate payloads by their tags,
// verifying the checksum, and recovering from the sender's retransmit
// buffer after a watchdog timeout or checksum mismatch. Recovery is
// bounded; exhausting it yields a PeerLostError when the sender is dead
// and a RotationError otherwise.
func (d *Distributed) recvPortion(p, ph, sweep, want int, abort <-chan struct{}) ([]float64, error) {
	cfg := d.Loop.Cfg
	sender := (p + 1) % cfg.P
	attempts := 0
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if timer == nil {
			timer = time.NewTimer(d.watchdog())
		} else {
			timer.Reset(d.watchdog())
		}
		select {
		case msg := <-d.chans[p]:
			timer.Stop()
			if msg.sweep != sweep || msg.portion != want {
				// Stale sweep, duplicate, or out-of-order portion: with
				// tags this is detectable locally — discard and keep
				// waiting for the schedule-mandated payload.
				d.Trace.Event("rotation/discard", p, ph, sweep, msg.portion)
				continue
			}
			if checksum(msg.data) != msg.sum {
				rs := d.Trace.Begin()
				if data, ok := d.fetchResend(sender, want, sweep); ok {
					d.Trace.End(obs.SpanResend, p, ph, sweep, want, rs)
					d.Inject.Recovered()
					return data, nil
				}
				attempts++
				if attempts > d.maxResend() {
					return nil, &RotationError{Proc: p, Phase: ph, Sweep: sweep, Expected: want, Got: msg.portion, Reason: "checksum"}
				}
				continue
			}
			return msg.data, nil
		case <-timer.C:
			attempts++
			d.Trace.Event("rotation/timeout", p, ph, sweep, want)
			rs := d.Trace.Begin()
			if data, ok := d.fetchResend(sender, want, sweep); ok {
				d.Trace.End(obs.SpanResend, p, ph, sweep, want, rs)
				d.Inject.Recovered()
				return data, nil
			}
			if attempts > d.maxResend() {
				if d.dead[sender].Load() {
					return nil, &PeerLostError{Proc: sender}
				}
				return nil, &RotationError{Proc: p, Phase: ph, Sweep: sweep, Expected: want, Got: -1, Reason: "timeout"}
			}
		case <-abort:
			return nil, errAborted
		}
	}
}

// fetchResend pulls (portion, sweep) from sender's retransmit buffer —
// the recovery path for dropped, corrupted and badly delayed payloads.
// It returns false when the sender has not shipped that portion for this
// sweep yet (slow peer: keep waiting) or never will (dead peer).
func (d *Distributed) fetchResend(sender, portion, sweep int) ([]float64, bool) {
	slot := &d.outbox[sender][portion]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if !slot.ok || slot.sweep != sweep {
		return nil, false
	}
	out := append([]float64(nil), slot.data...)
	return out, true
}

// assemble gathers each processor's home portions into out — after a full
// sweep, each processor holds its k home portions.
func (d *Distributed) assemble(out []float64) {
	l := d.Loop
	comp := l.Cost.comp()
	for p := 0; p < l.Cfg.P; p++ {
		for j := 0; j < l.Cfg.K; j++ {
			lo, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(p, j))
			copy(out[lo*comp:hi*comp], d.images[p][lo*comp:hi*comp])
		}
	}
}

// checksum is FNV-1a over the float bits — cheap, deterministic, and
// sensitive to any single-bit corruption of a payload.
func checksum(data []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range data {
		bits := math.Float64bits(v)
		b[0] = byte(bits)
		b[1] = byte(bits >> 8)
		b[2] = byte(bits >> 16)
		b[3] = byte(bits >> 24)
		b[4] = byte(bits >> 32)
		b[5] = byte(bits >> 40)
		b[6] = byte(bits >> 48)
		b[7] = byte(bits >> 56)
		h.Write(b[:])
	}
	return h.Sum64()
}
