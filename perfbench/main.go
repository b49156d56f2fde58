// Command perfbench is the repository benchmark. It starts irredd as a
// separate process (default flags except the listen address), drives one
// workload against it from two closed-loop clients — or, for
// irl-compiled, runs the compiler pipeline in process — checks every
// result against an oracle computed before the clock starts, and prints
// one JSON line with the metrics.
//
//	bash perfbench/run.sh --workload serve-short --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, from the daemon's own counters and spans and from
// spans the benchmark records around calls into each layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"irred/internal/obs"
)

const (
	// clients is the number of closed-loop clients: irredd's callers each
	// wait for their reply, and the machine the bounds were set on has two
	// cores.
	clients = 2
	// setups is how many times a served run sets up (exec to /readyz plus
	// the warm-up pass); setup_s is their median. The in-process
	// irl-compiled set-up takes about a millisecond, so it repeats more
	// times for a steady median.
	setups    = 3
	irlSetups = 25
)

type unitOf struct{ name, unit string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []unitOf{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run. A layer a workload does
// not reach reports 0.
var perLayer = []unitOf{
	{"wire.transport_ms", "ms"},
	{"wire.spec_decode_ms", "ms"},
	{"wire.request_kb", "KB"},
	{"wire.delta_codec_ms", "ms"},
	{"wire.retries", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.other_ms", "ms"},
	{"service.hash_ms", "ms"},
	{"service.cache_hit_ratio", "fraction"},
	{"input.materialize_ms", "ms"},
	{"inspector.key_ms", "ms"},
	{"inspector.light_ms", "ms"},
	{"inspector.update_ms", "ms"},
	{"inspector.incremental_share", "fraction"},
	{"rts.engine_ms", "ms"},
	{"rts.phase.compute_ms", "ms"},
	{"rts.phase.copy_ms", "ms"},
	{"rts.phase.wait_ms", "ms"},
	{"rts.phase.update_ms", "ms"},
	{"rts.phase.other_ms", "ms"},
	{"rts.seq_ms", "ms"},
	{"rts.engine_vs_seq", "ratio"},
	{"rts.allocs_per_step", "count"},
	{"rts.bytes_per_step", "bytes"},
	{"compiler.compile_ms", "ms"},
	{"compiler.runner_build_ms", "ms"},
	{"compiler.inspections", "count"},
	{"compiler.reuses", "count"},
	{"interp.bind_ms", "ms"},
	{"interp.step_ms", "ms"},
	{"interp.vs_native", "ratio"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_mb", "MB"},
	{"trace.overhead", "ratio"},
	{"share.wire", "fraction"},
	{"share.queue", "fraction"},
	{"share.input", "fraction"},
	{"share.schedule", "fraction"},
	{"share.engine", "fraction"},
	{"share.compiler", "fraction"},
	{"share.result", "fraction"},
	{"share.residual", "fraction"},
}

var workloads = []string{"serve-short", "stream-deltas", "irl-compiled"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	irredd   string // irredd binary
	root     string // repository checkout
	out      string // where the span file goes ("" = not written)
	tiny     bool   // test-sized inputs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-short | stream-deltas | irl-compiled")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run, reporting per-layer metrics")
	fs.StringVar(&cfg.irredd, "irredd", "", "irredd binary (served workloads)")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout (for examples/irl)")
	fs.StringVar(&cfg.out, "out", "", "directory for the span file of a traced run")
	fs.BoolVar(&cfg.tiny, "tiny", false, "test-sized inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func bench(cfg config) (*result, error) {
	var w *served
	var err error
	switch cfg.workload {
	case "serve-short":
		w, err = buildServeShort(cfg.seed, cfg.tiny)
	case "stream-deltas":
		w, err = buildStreamDeltas(cfg.seed, cfg.tiny)
	case "irl-compiled":
		return benchCompiled(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	if cfg.irredd == "" {
		return nil, fmt.Errorf("-irredd is required for %s", cfg.workload)
	}
	if cfg.trace {
		return tracedServed(cfg, w)
	}
	return untracedServed(cfg, w)
}

// tally counts checked outputs into res.
func (r *result) tally(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) set(name string, v float64) {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			r.Metrics[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("unknown metric " + name)
}

func (r *result) finish() *result {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// newResult starts a result with every metric of the run's kind at 0.
func newResult(traced bool) *result {
	r := &result{Metrics: map[string]metric{}}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		r.Metrics[m.name] = metric{Unit: m.unit}
	}
	return r
}

// timing is one completed op as the end-to-end metrics see it.
type timing struct {
	end   time.Duration // completion, since the window started
	latNS int64
	ok    bool
}

// subWindows is how many equal parts the window is cut into: throughput
// and each latency percentile are the median over the parts, so a burst
// of load from outside the benchmark in one part does not move them.
const subWindows = 5

// latencyMetrics sets throughput and the latency percentiles from the
// verified ops; ops that end after the window belong to its last part.
func (r *result) latencyMetrics(ts []timing, dur, elapsed time.Duration) {
	part := dur / subWindows
	var tput, p50, p90 []float64
	for k := 0; k < subWindows; k++ {
		lo, hi := time.Duration(k)*part, time.Duration(k+1)*part
		if k == subWindows-1 {
			hi = elapsed + 1
		}
		var lat []float64
		for _, t := range ts {
			if t.ok && t.end >= lo && t.end < hi {
				lat = append(lat, ms(t.latNS))
			}
		}
		tput = append(tput, throughput(len(lat), min(hi, elapsed)-lo))
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
	}
	r.set("throughput_ops_s", median(tput))
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p90_ms", median(p90))
}

// untracedServed sets up (exec to /readyz plus the warm-up pass) several
// times, keeps the last daemon, and measures the window against it.
func untracedServed(cfg config, w *served) (*result, error) {
	res := newResult(false)
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.irredd, false); err != nil {
			return nil, err
		}
		res.tally(w.warmup(d))
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.stop()
	samples, elapsed := w.window(d, cfg.dur, nil)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ts := make([]timing, len(samples))
	for i, s := range samples {
		ts[i] = timing{s.end, s.latNS, s.ok}
	}
	res.tally(len(samples), len(samples)-okCount(samples))
	res.latencyMetrics(ts, cfg.dur, elapsed)
	res.set("setup_s", median(setupS))
	res.set("peak_rss_mb", rss)
	return res.finish(), nil
}

// throughput is verified ops per second.
func throughput(n int, elapsed time.Duration) float64 {
	return float64(n) / elapsed.Seconds()
}

func okCount(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.ok {
			n++
		}
	}
	return n
}

// abba is the order of a traced run's four slices: untraced, traced,
// traced, untraced, so that a drift over the run cancels out of
// trace.overhead.
var abba = []bool{false, true, true, false}

// tracedServed runs the window in four slices, two of them traced,
// against one daemon with its debug listener on. Around each traced slice
// it reads the daemon's phase spans, /metrics and expvar memstats; then it
// replays each distinct op's layer calls in process and assembles the
// per-layer metrics.
func tracedServed(cfg config, w *served) (*result, error) {
	res := newResult(true)
	d, err := startDaemon(cfg.irredd, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.tally(w.warmup(d))
	var plain, samples []sample
	var plainElapsed, elapsed time.Duration
	var spans []obs.Span
	var gcPauseNS, heap uint64
	var hits, misses, incrDeltas, fullDeltas int64
	tr := newTracer()
	for _, traced := range abba {
		if !traced {
			s, e := w.window(d, cfg.dur/4, nil)
			plain, plainElapsed = append(plain, s...), plainElapsed+e
			continue
		}
		if err := d.traceReset(); err != nil {
			return nil, err
		}
		c0, err := d.counters()
		if err != nil {
			return nil, err
		}
		s, e := w.window(d, cfg.dur/4, tr)
		samples, elapsed = append(samples, s...), elapsed+e
		dump, err := d.trace()
		if err != nil {
			return nil, err
		}
		c1, err := d.counters()
		if err != nil {
			return nil, err
		}
		spans = append(spans, dump.Spans...)
		gcPauseNS += c1.mem.PauseTotalNs - c0.mem.PauseTotalNs
		heap = c1.mem.HeapAlloc
		hits += c1.met.CacheHitsTotal - c0.met.CacheHitsTotal
		misses += c1.met.CacheMissesTotal - c0.met.CacheMissesTotal
		incrDeltas += c1.met.Sessions.Incremental - c0.met.Sessions.Incremental
		fullDeltas += c1.met.Sessions.FullReinspects - c0.met.Sessions.FullReinspects
	}
	all := append(plain, samples...)
	res.tally(len(all), len(all)-okCount(all))

	// Replay the distinct ops' layer calls.
	lay := map[*op]layers{}
	var failed int
	if w.sessions() {
		var incr, full []layers
		for c, base := range w.base {
			ds := w.streams[c][:min(len(w.streams[c]), 32)]
			runs := make([][]layers, 0, replays)
			for r := 0; r < replays; r++ {
				ls, err := replaySession(base, ds, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					failed++
					break
				}
				runs = append(runs, ls)
			}
			if len(runs) < replays {
				continue
			}
			for i, o := range ds {
				per := make([]layers, replays)
				for r := range runs {
					per[r] = runs[r][i]
				}
				if o.incremental() {
					incr = append(incr, medianLayers(per))
				} else {
					full = append(full, medianLayers(per))
				}
			}
		}
		for _, s := range samples {
			if s.op.incremental() {
				lay[s.op] = meanLayers(incr)
			} else {
				lay[s.op] = meanLayers(full)
			}
		}
	} else {
		for _, o := range w.ops {
			per := make([]layers, 0, replays)
			for r := 0; r < replays; r++ {
				l, err := replayJob(o, tr)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					failed++
					break
				}
				per = append(per, l)
			}
			if len(per) == replays {
				lay[o] = medianLayers(per)
			}
		}
	}
	res.tally(0, failed)

	nativeStep := servedLayers(res, w, samples, lay)
	c, cp, wt, up := phaseMS(spans)
	res.set("rts.phase.compute_ms", c)
	res.set("rts.phase.copy_ms", cp)
	res.set("rts.phase.wait_ms", wt)
	res.set("rts.phase.update_ms", up)
	res.set("rts.phase.other_ms", nativeStep-(c+cp+wt+up))
	res.set("service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	res.set("inspector.incremental_share", ratio(float64(incrDeltas), float64(incrDeltas+fullDeltas)))
	res.set("runtime.gc_pause_ms", ms(int64(gcPauseNS))/float64(max(len(samples), 1)))
	res.set("runtime.heap_mb", float64(heap)/(1<<20))
	res.set("trace.overhead", ratio(throughput(okCount(samples), elapsed), throughput(okCount(plain), plainElapsed)))
	if err := writeSpans(cfg, tr); err != nil {
		return nil, err
	}
	return res.finish(), nil
}

// meanLayers averages replayed layer times.
func meanLayers(ls []layers) layers {
	var m layers
	if len(ls) == 0 {
		return m
	}
	n := int64(len(ls))
	for _, l := range ls {
		m.decode += l.decode
		m.codec += l.codec
		m.materialize += l.materialize
		m.key += l.key
		m.light += l.light
		m.update += l.update
		m.engine += l.engine
		m.hash += l.hash
		m.allocs += l.allocs
		m.bytes += l.bytes
		m.steps = l.steps
	}
	m.decode, m.codec, m.materialize, m.key = m.decode/n, m.codec/n, m.materialize/n, m.key/n
	m.light, m.update, m.engine, m.hash = m.light/n, m.update/n, m.engine/n, m.hash/n
	m.allocs, m.bytes = m.allocs/float64(n), m.bytes/float64(n)
	return m
}

// servedLayers weights each distinct op's replayed layer times by how
// often the traced window ran it, and splits client latency into
// transport, queue wait and the server's run, whose unexplained part is
// service.other_ms:
//
//	latency = wire.transport + service.queue_wait + service.run
//	service.run = input + key + light + update + engine (+ hash, for jobs) + service.other
//
// It returns the replayed engine time per step of the ops that ran on the
// native engine, the only one with phase spans.
func servedLayers(res *result, w *served, samples []sample, lay map[*op]layers) (nativeStepMS float64) {
	var L, Q, R, retries, kb, decode, codec, mat, key, light, update, engine, hash, seq, allocs, bytes, perStep float64
	var n, nNative float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		n++
		l := lay[s.op]
		L += ms(s.latNS)
		Q += s.queuedMS
		R += s.runMS
		retries += float64(s.retries)
		kb += float64(len(s.op.body)) / 1024
		decode += ms(l.decode)
		codec += ms(l.codec)
		mat += ms(l.materialize)
		key += ms(l.key)
		if !s.cacheHit {
			light += ms(l.light)
		}
		update += ms(l.update)
		engine += ms(l.engine)
		hash += ms(l.hash)
		seq += ms(s.op.seqNS)
		steps := float64(max(l.steps, 1))
		perStep += ms(l.engine) / steps
		allocs += l.allocs / steps
		bytes += l.bytes / steps
		if s.op.spec.Engine != "distributed" {
			nNative++
			nativeStepMS += ms(l.engine) / steps
		}
	}
	if n == 0 {
		return 0
	}
	for _, v := range []*float64{&L, &Q, &R, &retries, &kb, &decode, &codec, &mat, &key, &light, &update, &engine, &hash, &seq, &allocs, &bytes, &perStep} {
		*v /= n
	}
	inRun := mat + key + light + update + engine
	if !w.sessions() {
		inRun += hash
	}
	other := R - inRun
	transport := L - Q - R
	res.set("wire.transport_ms", transport)
	res.set("wire.spec_decode_ms", decode)
	res.set("wire.request_kb", kb)
	res.set("wire.delta_codec_ms", codec)
	res.set("wire.retries", retries)
	res.set("service.queue_wait_ms", Q)
	res.set("service.run_ms", R)
	res.set("service.other_ms", other)
	res.set("service.hash_ms", hash)
	res.set("input.materialize_ms", mat)
	res.set("inspector.key_ms", key)
	res.set("inspector.light_ms", light)
	res.set("inspector.update_ms", update)
	res.set("rts.engine_ms", engine)
	res.set("rts.seq_ms", seq)
	res.set("rts.engine_vs_seq", ratio(perStep, seq))
	res.set("rts.allocs_per_step", allocs)
	res.set("rts.bytes_per_step", bytes)
	res.set("share.wire", transport/L)
	res.set("share.queue", Q/L)
	res.set("share.input", mat/L)
	res.set("share.schedule", (key+light+update)/L)
	res.set("share.engine", engine/L)
	if !w.sessions() {
		res.set("share.result", hash/L)
	}
	res.set("share.residual", other/L)
	return ratio(nativeStepMS, nNative)
}

func writeSpans(cfg config, tr *tracer) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)))
}

// benchCompiled runs the irl-compiled workload in process.
func benchCompiled(cfg config) (*result, error) {
	w, err := buildCompiled(cfg.root, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg.trace)
	var setupS []float64
	for i := 0; i < irlSetups; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if !cfg.trace {
		samples, elapsed := w.window(cfg.dur, nil)
		ts := make([]timing, len(samples))
		failed := 0
		for i, s := range samples {
			ts[i] = timing{s.end, s.latNS, s.ok}
			if !s.ok {
				failed++
			}
		}
		res.tally(len(samples), failed)
		res.latencyMetrics(ts, cfg.dur, elapsed)
		res.set("setup_s", median(setupS))
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", rss)
		return res.finish(), nil
	}
	var plain, samples []irlSample
	var plainElapsed, elapsed time.Duration
	var gcPauseNS uint64
	var m runtime.MemStats
	tr := newTracer()
	for _, traced := range abba {
		if !traced {
			s, e := w.window(cfg.dur/4, nil)
			plain, plainElapsed = append(plain, s...), plainElapsed+e
			continue
		}
		runtime.ReadMemStats(&m)
		gcPauseNS -= m.PauseTotalNs
		s, e := w.window(cfg.dur/4, tr)
		samples, elapsed = append(samples, s...), elapsed+e
		runtime.ReadMemStats(&m)
		gcPauseNS += m.PauseTotalNs
	}
	countOK := func(ss []irlSample) (n int) {
		for _, s := range ss {
			if s.ok {
				n++
			}
		}
		return n
	}
	res.tally(len(plain)+len(samples), len(plain)+len(samples)-countOK(plain)-countOK(samples))

	ph := obsTracer()
	lay := map[*program]irlLayers{}
	for _, pr := range w.progs {
		per := make([]irlLayers, 0, replays)
		for r := 0; r < replays; r++ {
			l, err := replayProgram(pr, tr, ph)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				res.tally(0, 1)
				break
			}
			per = append(per, l)
		}
		if len(per) == replays {
			lay[pr] = medianIRL(per)
		}
	}
	compiledLayers(res, samples, lay)
	spans, _ := ph.Snapshot()
	c, cp, wt, up := phaseMS(spans)
	res.set("rts.phase.compute_ms", c)
	res.set("rts.phase.copy_ms", cp)
	res.set("rts.phase.wait_ms", wt)
	res.set("rts.phase.update_ms", up)
	res.set("rts.phase.other_ms", res.Metrics["rts.engine_ms"].Value/irlSteps-(c+cp+wt+up))
	res.set("runtime.gc_pause_ms", ms(int64(gcPauseNS))/float64(max(len(samples), 1)))
	res.set("runtime.heap_mb", float64(m.HeapAlloc)/(1<<20))
	res.set("trace.overhead", ratio(throughput(countOK(samples), elapsed), throughput(countOK(plain), plainElapsed)))
	if err := writeSpans(cfg, tr); err != nil {
		return nil, err
	}
	return res.finish(), nil
}

// compiledLayers splits an irl-compiled op into compile, bind, Runner
// build (whose LightInspector share is inspector.light_ms) and steps; the
// hand-written kernels' native and sequential steps on the same inputs
// give the engine baselines.
func compiledLayers(res *result, samples []irlSample, lay map[*program]irlLayers) {
	var L, compile, bind, runner, steps, insp, reuses, light float64
	var hand, handSteps, native, seq, allocs, bytes float64
	var n float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		n++
		l := lay[s.prog]
		L += ms(s.latNS)
		compile += float64(s.t.compile) / 1e6
		bind += float64(s.t.bind) / 1e6
		runner += float64(s.t.runner) / 1e6
		steps += float64(s.t.steps) / 1e6
		insp += float64(s.t.inspections)
		reuses += float64(s.t.reuses)
		light += ms(l.light)
		if l.hasHand {
			hand++
			handSteps += float64(s.t.steps) / 1e6
			native += ms(l.native)
			seq += ms(l.seq)
			allocs += l.allocs
			bytes += l.bytes
		}
	}
	if n == 0 {
		return
	}
	for _, v := range []*float64{&L, &compile, &bind, &runner, &steps, &insp, &reuses, &light} {
		*v /= n
	}
	res.set("compiler.compile_ms", compile)
	res.set("compiler.runner_build_ms", runner)
	res.set("compiler.inspections", insp)
	res.set("compiler.reuses", reuses)
	res.set("interp.bind_ms", bind)
	res.set("interp.step_ms", steps/irlSteps)
	res.set("inspector.light_ms", light)
	if hand > 0 {
		res.set("rts.engine_ms", native/hand)
		res.set("rts.seq_ms", seq/hand)
		res.set("rts.engine_vs_seq", ratio(native/irlSteps, seq))
		res.set("interp.vs_native", ratio(handSteps, native))
		res.set("rts.allocs_per_step", allocs/hand/irlSteps)
		res.set("rts.bytes_per_step", bytes/hand/irlSteps)
	}
	res.set("share.compiler", (compile+runner-light)/L)
	res.set("share.schedule", light/L)
	res.set("share.engine", steps/L)
	res.set("share.residual", (L-compile-runner-steps)/L)
}
