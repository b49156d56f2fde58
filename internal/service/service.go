// Package service is the reduction-as-a-service layer: a job-oriented
// server over the paper's execution strategy. It turns the paper's
// amortization economics — LightInspector runs once, its schedules serve
// ~100 executor iterations, and the communication schedule is independent
// of the values flowing through — into a long-running daemon that caches
// schedules across *requests*: any job arriving with indirection arrays
// and strategy already seen reuses the cached P-processor schedule set and
// goes straight to execution on the native engine.
//
// The package has four parts: the schedule Cache (LRU + optional disk
// persistence via inspector/serialize), the executor pool (bounded
// concurrency, bounded admission queue, per-job context cancellation
// plumbed into the rts native run loops), the HTTP API (http.go, exposed by
// cmd/irredd), and the client (subpackage client) used by tests and
// irredrun -server.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"irred/internal/fault"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/obs"
	"irred/internal/rts"
)

// ErrChaosDisabled is returned for jobs carrying a chaos spec when the
// service was not started with chaos enabled.
var ErrChaosDisabled = errors.New("service: chaos injection disabled (start the daemon with -chaos)")

// ShutdownGrace is how long graceful HTTP shutdown waits for in-flight
// requests before giving up (daemon and core.Serve both honour it).
const ShutdownGrace = 10 * time.Second

// Options configures a Service. Zero values pick serving-friendly defaults.
type Options struct {
	// Workers is the executor pool size: at most this many reductions run
	// concurrently. Default: GOMAXPROCS/2, at least 1.
	Workers int
	// QueueLen bounds the admission queue; submissions beyond it are shed
	// with ErrQueueFull. Default 64.
	QueueLen int
	// CacheEntries bounds the in-memory schedule cache. Default 128.
	CacheEntries int
	// CacheDir, when non-empty, persists cached schedules to disk and warms
	// the cache from it on startup.
	CacheDir string
	// MaxFinished bounds how many terminal jobs are retained for status
	// queries; older ones are forgotten. Default 1024.
	MaxFinished int
	// TraceSpans bounds the phase-level trace ring exposed at /debug/trace
	// (oldest spans are overwritten). 0 picks obs.DefaultCapacity; a
	// negative value disables tracing entirely.
	TraceSpans int
	// AllowChaos accepts job specs carrying a fault.Spec. Off by default:
	// fault injection is a test instrument, and a tenant must not be able
	// to stall or panic a shared daemon unless it was started for that.
	AllowChaos bool
	// CheckpointEvery is the default checkpoint interval (sweeps) for raw
	// multi-sweep jobs that do not set their own; 0 disables checkpointing
	// for jobs that do not ask for it. Checkpoints need CacheDir.
	CheckpointEvery int
	// Tuner resolves jobs submitted with Auto: their (engine, P, k, dist)
	// come from the measured-fastest usable cell of a persisted BENCH
	// trajectory. Build it with an engine allowlist matching what this
	// serving path can execute (native + distributed). Nil still accepts
	// Auto jobs — they get the paper's heuristic defaults.
	Tuner *rts.Tuner
	// MaxSessions bounds the resident streaming sessions (each keeps a
	// cloned schedule set and its indirection arrays in memory). Beyond it
	// the least recently used session is evicted; its next request answers
	// 410 Gone. Default 64.
	MaxSessions int
	// SessionFallbackFrac is the delta fraction (changed iterations /
	// total) above which a session re-inspects from scratch instead of
	// updating incrementally. Default DefaultFallbackFrac.
	SessionFallbackFrac float64

	// Replicate, when set, receives every IRCJ checkpoint frame written
	// for a job carrying a ClusterUID, along with the job's routing key.
	// The cluster layer ships the frame to the key's ring successor so a
	// failover replay resumes mid-job instead of recomputing from sweep 0.
	// Called off the job's hot path; best effort.
	Replicate func(uid, routingKey string, frame []byte)

	// FetchReplica, when set, is consulted for a submitted ClusterUID with
	// no local checkpoint: a replicated IRCJ frame seeds the job the same
	// way a local checkpoint file would. Returns nil when the uid is
	// unknown.
	FetchReplica func(uid string) []byte
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueLen < 1 {
		o.QueueLen = 64
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 128
	}
	if o.MaxFinished < 1 {
		o.MaxFinished = 1024
	}
	return o
}

// Service accepts reduction jobs, serves schedules from the cache, and
// executes on the native engine under bounded concurrency.
type Service struct {
	opt      Options
	cache    *Cache
	pool     *pool
	met      *metrics
	trace    *obs.Tracer
	sessions *sessionStore
	start    time.Time
	jobsDir  string // job checkpoint directory, "" when persistence is off

	draining atomic.Bool // flips /readyz during graceful shutdown

	mu       sync.Mutex
	jobs     map[string]*Job
	byUID    map[string]*Job // live jobs by ClusterUID (dedupe of replayed forwards)
	finished []string        // terminal job ids, oldest first, for pruning
	nextID   int64
	closed   bool
}

// New builds a Service, starts its worker pool, and — when a disk
// directory is configured — re-admits every job checkpoint found on disk,
// so work interrupted by a crash or SIGTERM resumes from its last
// checkpointed sweep instead of being lost.
func New(opt Options) (*Service, error) {
	opt = opt.withDefaults()
	cache, err := NewCache(opt.CacheEntries, opt.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opt:      opt,
		cache:    cache,
		met:      newMetrics(),
		sessions: newSessionStore(opt.MaxSessions, opt.SessionFallbackFrac),
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		byUID:    make(map[string]*Job),
	}
	if opt.TraceSpans >= 0 {
		s.trace = obs.New(opt.TraceSpans)
	}
	if opt.CacheDir != "" {
		s.jobsDir = filepath.Join(opt.CacheDir, ckJobsDir)
		if err := os.MkdirAll(s.jobsDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: jobs dir: %w", err)
		}
	}
	s.pool = newPool(opt.Workers, opt.QueueLen, s.runJob, s.jobPanicked)
	s.resumeCheckpointed()
	return s, nil
}

// resumeCheckpointed re-admits the checkpointed jobs left behind by the
// previous process. Each resumed job gets a fresh id (the old files are
// consumed), seeds its reduction array from the stored vector, and runs
// only the remaining sweeps.
func (s *Service) resumeCheckpointed() {
	if s.jobsDir == "" {
		return
	}
	cks := scanJobCheckpoints(s.jobsDir)
	for old := range cks {
		os.Remove(ckPath(s.jobsDir, old))
	}
	for _, ck := range cks {
		if _, err := s.submitJob(ck.Spec, ck); err != nil {
			continue // e.g. the queue is smaller than the backlog: drop
		}
		s.trace.Event("job/resume", -1, -1, ck.Sweep, -1)
	}
}

// Cache exposes the schedule cache (stats, warming).
func (s *Service) Cache() *Cache { return s.cache }

// Trace exposes the phase-level span tracer (nil when disabled). Every
// executed job records inspector, per-phase compute/copy/wait, update and
// whole-job spans into it.
func (s *Service) Trace() *obs.Tracer { return s.trace }

// Submit validates a spec and enqueues it. It returns ErrQueueFull when
// the admission queue is at capacity and ErrClosed after shutdown.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.submitJob(spec, nil)
}

// submitJob admits a job, optionally seeded from a checkpoint (resume).
func (s *Service) submitJob(spec JobSpec, ck *jobCheckpoint) (*Job, error) {
	var tunedFrom string
	if spec.Auto {
		spec, tunedFrom = s.applyAuto(spec)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("service: invalid job: %w", err)
	}
	if spec.Chaos != nil && !s.opt.AllowChaos {
		return nil, ErrChaosDisabled
	}
	// A replayed cluster job may already hold a replicated mid-run
	// checkpoint here (pushed by the now-dead owner): seed from it so the
	// failover resumes at the last replicated sweep instead of sweep 0. A
	// local checkpoint (restart resume) takes precedence.
	if ck == nil && spec.ClusterUID != "" && s.opt.FetchReplica != nil && spec.IsRaw() {
		if raw := s.opt.FetchReplica(spec.ClusterUID); raw != nil {
			rck, err := decodeJobCheckpoint(raw, "replica:"+spec.ClusterUID)
			if err == nil && rck.Spec.ClusterUID == spec.ClusterUID &&
				rck.Spec.RoutingKey() == spec.RoutingKey() {
				ck = rck
				s.trace.Event("job/replica-seed", -1, -1, rck.Sweep, -1)
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Cluster dedupe: a retried or failed-over forward of a job already
	// live (or already finished) here attaches to the existing job rather
	// than running it twice. A failed or cancelled prior run does not
	// satisfy the replay — it is replaced.
	if spec.ClusterUID != "" {
		if prev := s.byUID[spec.ClusterUID]; prev != nil {
			switch prev.State() {
			case StateQueued, StateRunning, StateDone:
				s.mu.Unlock()
				return prev, nil
			}
		}
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	var ctx context.Context
	var cancel context.CancelFunc
	if spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &Job{
		ID:      id,
		Spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	j.tuned = tunedFrom
	if ck != nil {
		j.resumed = true
		j.resumeAt = ck.Sweep
		j.ckSweep = ck.Sweep
		j.seed = ck.X
	}
	s.jobs[id] = j
	if spec.ClusterUID != "" {
		s.byUID[spec.ClusterUID] = j
	}
	s.mu.Unlock()

	if ck != nil && s.jobsDir != "" {
		// Re-persist the checkpoint under the job's new id before it can
		// run: a daemon TERM'd again — even before this job leaves the
		// queue — must still find a resumable file on the next start.
		writeJobCheckpoint(ckPath(s.jobsDir, id), ck, nil)
	}

	if err := s.pool.submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		if spec.ClusterUID != "" && s.byUID[spec.ClusterUID] == j {
			delete(s.byUID, spec.ClusterUID)
		}
		s.mu.Unlock()
		cancel()
		s.met.shedJob()
		return nil, err
	}
	s.met.submittedJob()
	return j, nil
}

// applyAuto resolves an Auto spec against the configured tuner: the
// measured-fastest usable strategy for the job's workload overwrites the
// spec's (engine, P, k, dist). The service path has no schedule-license
// information at submission time, so the tuner is consulted with a nil
// license (tree-fold cells never back service picks — the pool cannot run
// them anyway) and any pick the pool cannot execute falls back to its
// native shape.
func (s *Service) applyAuto(spec JobSpec) (JobSpec, string) {
	tn := s.opt.Tuner
	if tn == nil {
		tn = rts.NewTuner(nil, rts.TunerOptions{})
	}
	kernel, class := spec.workload()
	pick := tn.Pick(kernel, class, nil)
	if pick.Engine != "native" && !(pick.Engine == "distributed" && spec.IsRaw()) {
		pick.Engine = "native"
	}
	spec.P, spec.K, spec.Dist = pick.P, pick.K, pick.Dist
	spec.Engine = ""
	if pick.Engine == "distributed" {
		spec.Engine = "distributed"
	}
	return spec, pick.Source
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job; it reports whether the id exists.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if ok {
		j.Cancel()
	}
	return ok
}

// BeginDrain flips /readyz to draining: load balancers stop routing new
// work here while in-flight jobs finish. It does not stop admissions —
// that is Close's job — so requests already in flight still land.
func (s *Service) BeginDrain() {
	s.draining.Store(true)
}

// Ready reports whether the service should receive new traffic.
func (s *Service) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// jobPanicked is the pool's panic supervisor: a panic that escaped a job
// run is recovered here, the job is marked failed with the stack attached,
// and the worker goroutine survives to take the next job.
func (s *Service) jobPanicked(j *Job, v any, stack []byte) {
	s.trace.Event("job/panic", -1, -1, -1, -1)
	j.mu.Lock()
	j.stack = stack
	from := j.state
	j.mu.Unlock()
	s.finishJob(j, from, nil, "", false, fmt.Errorf("service: job panicked: %v", v))
}

// Close stops admissions, cancels outstanding jobs, and waits for workers.
func (s *Service) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		// Shutdown preemption is not user cancellation: a preempted job's
		// checkpoint must survive so the next daemon resumes it.
		j.mu.Lock()
		j.preempted = true
		j.mu.Unlock()
		j.Cancel()
	}
	// Sessions are memory-only and die with the process; marking them
	// closed makes any racing delta fail with 410 instead of mutating a
	// schedule nobody will ever serve again.
	for _, sess := range s.sessions.all() {
		sess.markClosed()
	}
	s.pool.close()
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Snapshot {
	jobs, busy, lat := s.met.snapshot()
	cs := s.cache.Stats()
	depth, peak, enqueued := s.pool.queueStats()
	return Snapshot{
		UptimeSec:        time.Since(s.start).Seconds(),
		Jobs:             jobs,
		Cache:            cs,
		CacheHitsTotal:   cs.Hits,
		CacheMissesTotal: cs.Misses,
		CacheHitRatio:    cs.HitRatio(),
		QueueDepth:       depth,
		QueuePeak:        peak,
		QueueEnqueued:    enqueued,
		Workers:          s.opt.Workers,
		WorkersBusy:      busy,
		Latency:          lat,
		Sessions:         s.sessions.metrics(),
		Inputs:           kernels.InputCacheStats(),
	}
}

// runJob is the worker entry: it drives one job through its lifecycle.
func (s *Service) runJob(j *Job) {
	// A job cancelled (or expired) while queued completes immediately,
	// without charging a worker.
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, StateQueued, nil, "", false, err)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.met.startJob()

	kind := j.Spec.Kernel
	if kind == "" {
		kind = "raw"
	}
	js := s.trace.Begin()
	result, hit, key, err := s.execute(j)
	s.trace.End("job/"+kind, -1, -1, -1, -1, js)
	j.mu.Lock()
	j.key = key
	j.cacheHit = hit
	j.mu.Unlock()
	s.finishJob(j, StateRunning, result, key, hit, err)
}

// finishJob drives a job to its terminal state and releases its context.
func (s *Service) finishJob(j *Job, from State, result []float64, key string, hit bool, err error) {
	to := StateDone
	var msg string
	switch {
	case err == nil:
	case j.ctx.Err() != nil:
		// Cancellation or deadline beat (or caused) the failure.
		to = StateCancelled
		msg = j.ctx.Err().Error()
	default:
		to = StateFailed
		msg = err.Error()
	}
	j.mu.Lock()
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		// Already terminal: a panic after completion (or a double finish)
		// must not close the done channel twice.
		j.mu.Unlock()
		return
	}
	j.state = to
	j.errMsg = msg
	if to == StateDone {
		j.result = result
		j.resultSum = HashResult(result)
	}
	j.finished = time.Now()
	total := j.finished.Sub(j.created)
	ckSweep := j.ckSweep
	preempted := j.preempted
	j.mu.Unlock()
	j.cancel() // release the context's timer resources
	close(j.done)
	if s.jobsDir != "" && ckSweep > 0 && !(preempted && to == StateCancelled) {
		// A terminal job's checkpoint is dead weight: done jobs are done,
		// and failed/cancelled jobs would only repeat their fate on resume.
		// The one exception is shutdown preemption — that checkpoint is the
		// whole point, it is how the next daemon picks the job back up.
		os.Remove(ckPath(s.jobsDir, j.ID))
	}
	s.met.finishJob(from, to, total)
	s.pruneFinished(j.ID)
}

// pruneFinished retains at most MaxFinished terminal jobs.
func (s *Service) pruneFinished(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.opt.MaxFinished {
		old := s.finished[0]
		s.finished = s.finished[1:]
		if j := s.jobs[old]; j != nil && j.Spec.ClusterUID != "" && s.byUID[j.Spec.ClusterUID] == j {
			delete(s.byUID, j.Spec.ClusterUID)
		}
		delete(s.jobs, old)
	}
}

// schedules serves the loop's schedule set, stored under key (its
// inspector.ScheduleKey), from the cache, running the LightInspector only
// on a miss. Concurrent misses on the same key may both inspect; the
// duplicate Put is harmless (entries are content-determined).
func (s *Service) schedules(l *rts.Loop, key string) ([]*inspector.Schedule, bool, error) {
	l.Trace = s.trace
	if scheds, ok := s.cache.Get(key); ok {
		s.trace.Event("cache/hit", -1, -1, -1, -1)
		return scheds, true, nil
	}
	s.trace.Event("cache/miss", -1, -1, -1, -1)
	scheds, err := l.Schedules()
	if err != nil {
		return nil, false, err
	}
	if err := s.cache.Put(key, scheds); err != nil {
		// Persistence failure degrades to in-memory-only; the job itself
		// proceeds. (Put inserts in memory before touching disk.)
		_ = err
	}
	return scheds, false, nil
}

// execute builds the job's loop, obtains schedules through the cache, and
// runs the reduction on the native engine under the job's context.
func (s *Service) execute(j *Job) (result []float64, hit bool, key string, err error) {
	spec := &j.Spec
	dist, err := spec.dist()
	if err != nil {
		return nil, false, "", err
	}
	steps := spec.steps()

	if spec.IsRaw() {
		return s.executeRaw(j, dist, steps)
	}

	return s.executeNamed(j, dist, steps)
}

// executeRaw runs a raw reduction job: engine selection (native or the
// hardened distributed engine), per-job chaos injection, and — for
// multi-sweep jobs on a disk-backed service — periodic checkpoints of the
// reduction array and sweep counter, so a daemon restart resumes the job
// instead of recomputing it.
func (s *Service) executeRaw(j *Job, dist inspector.Dist, steps int) (result []float64, hit bool, key string, err error) {
	spec := &j.Spec
	if len(spec.Loops) > 0 {
		return s.executeRawMulti(j, dist, steps)
	}
	l := &rts.Loop{Cfg: spec.rawConfig(dist), Mode: rts.Reduce, Ind: spec.Ind}
	key = inspector.ScheduleKey(l.Cfg, l.Ind...)
	scheds, hit, err := s.schedules(l, key)
	if err != nil {
		return nil, hit, key, err
	}

	var inj *fault.Injector
	if spec.Chaos != nil {
		inj = fault.New(*spec.Chaos)
	}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = s.opt.CheckpointEvery
	}
	ckOn := s.jobsDir != "" && every > 0 && steps > 1

	// Resume state installed by submitJob for checkpointed jobs.
	j.mu.Lock()
	done, seed := j.resumeAt, j.seed
	j.mu.Unlock()
	if done >= steps || (seed != nil && len(seed) != l.Cfg.NumElems) {
		done, seed = 0, nil
	}

	// Cluster jobs replicate every checkpoint frame to the routing key's
	// ring successor (via the Replicate hook), so the failover target can
	// resume mid-job even though this node's disk dies with this node.
	var routeKey string
	if spec.ClusterUID != "" && s.opt.Replicate != nil {
		routeKey = spec.RoutingKey()
	}
	writeCk := func(sweep int, x []float64) {
		cs := s.trace.Begin()
		path := ckPath(s.jobsDir, j.ID)
		werr := writeJobCheckpoint(path, &jobCheckpoint{Spec: *spec, Sweep: sweep, X: x}, inj)
		s.trace.End(obs.SpanCheckpoint, -1, -1, sweep, -1, cs)
		if werr != nil {
			// A failed checkpoint write loses a resume point, nothing more:
			// the job itself is unharmed.
			s.trace.Event("checkpoint/fail", -1, -1, sweep, -1)
			return
		}
		j.mu.Lock()
		j.ckSweep = sweep
		j.mu.Unlock()
		if routeKey != "" {
			if frame, rerr := os.ReadFile(path); rerr == nil {
				s.opt.Replicate(spec.ClusterUID, routeKey, frame)
			}
		}
	}

	if spec.distributed() {
		d, err := rts.NewDistributedFrom(l, scheds)
		if err != nil {
			return nil, hit, key, err
		}
		d.BatchContribs = spec.contrib()
		d.Trace = s.trace
		d.Inject = inj
		if inj != nil {
			// Chaos jobs are soak instruments: a dropped payload should cost
			// milliseconds, not the conservative default watchdog, or the
			// soak spends its whole budget waiting on injected faults.
			d.Watchdog = 25 * time.Millisecond
		}
		if seed != nil {
			if err := d.Seed(seed); err != nil {
				return nil, hit, key, err
			}
		}
		if ckOn {
			base := done
			d.CheckpointEvery = every
			d.Checkpoint = func(sweep int, x []float64) error {
				writeCk(base+sweep, x)
				return nil
			}
		}
		out, err := d.RunContext(j.ctx, steps-done)
		if err != nil {
			var pe *rts.PanicError
			if errors.As(err, &pe) {
				j.mu.Lock()
				j.stack = pe.Stack
				j.mu.Unlock()
			}
			return nil, hit, key, err
		}
		return out, hit, key, nil
	}

	// Native engine. Chaos here is limited to kernel panics (payload
	// faults need a wire; the native engine's token rotation has none).
	// The panic is caught in the contribution wrapper itself — a panic on
	// an engine-internal goroutine would crash the process — and turned
	// into a cancelled run plus a structured job failure with the stack.
	n, err := rts.NewNativeFrom(l, scheds)
	if err != nil {
		return nil, hit, key, err
	}
	contrib := spec.contrib()
	runCtx := j.ctx
	var pmu sync.Mutex
	var panicVal any
	var panicStack []byte
	if inj != nil {
		ctx2, cancel := context.WithCancel(j.ctx)
		defer cancel()
		runCtx = ctx2
		// Each iteration runs alone under its own recover, so a panic
		// costs exactly the panicking iteration's contributions.
		base, w := contrib, len(l.Ind)
		one := func(p int, it []int32, out []float64) {
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if panicVal == nil {
						panicVal, panicStack = r, debug.Stack()
						cancel()
					}
					pmu.Unlock()
					for c := range out {
						out[c] = 0
					}
				}
			}()
			inj.KernelPanic(p, int(it[0]))
			base(p, it, out)
		}
		contrib = func(p int, iters []int32, out []float64) {
			for j := range iters {
				one(p, iters[j:j+1], out[j*w:(j+1)*w])
			}
		}
	}
	n.BatchContribs = contrib
	if seed != nil {
		copy(n.X, seed)
	}
	for done < steps {
		chunk := steps - done
		if ckOn && chunk > every {
			chunk = every
		}
		runErr := n.RunContext(runCtx, chunk)
		pmu.Lock()
		pv, ps := panicVal, panicStack
		pmu.Unlock()
		if pv != nil {
			j.mu.Lock()
			j.stack = ps
			j.mu.Unlock()
			return nil, hit, key, fmt.Errorf("service: kernel panicked: %v", pv)
		}
		if runErr != nil {
			return nil, hit, key, runErr
		}
		done += chunk
		if ckOn && done < steps {
			writeCk(done, n.X)
		}
	}
	return n.X, hit, key, nil
}

// executeRawMulti runs a raw multi-loop program: the loops of every sweep
// execute in order against one shared reduction array, so loop l+1 sees
// loop l's contributions of the same sweep — the way consecutive
// fissioned loops chain in a compiled program. Schedule sets are
// content-addressed: loops whose effective indirection contents coincide
// share one set (inspected once, found again in the job-local slot map or
// the service cache), which is the serving-side consumption of the
// paper's amortization argument — inspection cost is paid per distinct
// traversal, not per loop. Validation has already pinned this path to the
// native engine with no chaos and no checkpointing.
func (s *Service) executeRawMulti(j *Job, dist inspector.Dist, steps int) (result []float64, hit bool, key string, err error) {
	spec := &j.Spec
	cfg := spec.rawConfig(dist)
	x := make([]float64, spec.NumElems)
	slots := make(map[string][]*inspector.Schedule)
	natives := make([]*rts.Native, len(spec.Loops))
	for li := range spec.Loops {
		ind := spec.loopInd(li)
		l := &rts.Loop{Cfg: cfg, Mode: rts.Reduce, Ind: ind, Trace: s.trace}
		k := inspector.ScheduleKey(cfg, ind...)
		scheds, ok := slots[k]
		if ok {
			// A previous loop of this job already inspected this exact
			// traversal; execute against its schedules.
			s.trace.Event("job/reuse", -1, -1, li, -1)
		} else {
			var h bool
			scheds, h, err = s.schedules(l, k)
			if err != nil {
				return nil, hit, key, err
			}
			hit = hit || h
			slots[k] = scheds
		}
		if key == "" {
			key = k
		}
		n, err := rts.NewNativeFrom(l, scheds)
		if err != nil {
			return nil, hit, key, err
		}
		n.BatchContribs = spec.contribFor(li)
		n.X = x
		natives[li] = n
	}
	for step := 0; step < steps; step++ {
		for _, n := range natives {
			if err := n.RunContext(j.ctx, 1); err != nil {
				return nil, hit, key, err
			}
		}
	}
	return x, hit, key, nil
}

// executeNamed runs a named-kernel job on the native engine over its
// dataset from the process-wide input cache.
func (s *Service) executeNamed(j *Job, dist inspector.Dist, steps int) (result []float64, hit bool, key string, err error) {
	spec := &j.Spec
	start := s.trace.Begin()
	in, inputHit, err := kernels.Input(spec.Kernel, spec.Dataset, spec.Seed)
	if err != nil {
		return nil, false, "", err
	}
	if inputHit {
		s.trace.Event("input/hit", -1, -1, -1, -1)
	} else {
		s.trace.End("input/build", -1, -1, -1, -1, start)
	}
	l := in.Loop(spec.P, spec.K, dist)
	key = inspector.ScheduleKey(l.Cfg, l.Ind...)
	scheds, hit, err := s.schedules(l, key)
	if err != nil {
		return nil, hit, key, err
	}
	n, out, err := in.Native(l, scheds)
	if err != nil {
		return nil, hit, key, err
	}
	n.Trace = s.trace
	if err := n.RunContext(j.ctx, steps); err != nil {
		return nil, hit, key, err
	}
	return out, hit, key, nil
}
