package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/service"
	"irred/internal/sparse"
)

// tol is the relative tolerance internal/difftest allows float kernels:
// |got-want| <= tol * max(1, |want|).
const tol = 1e-9

// op is one distinct request of a served workload with its oracle, all
// computed before the clock starts.
type op struct {
	name string
	kind string // named | raw | delta
	spec service.JobSpec
	body []byte // request body as sent: JSON spec, or an IRDB delta frame
	// want is the expected result_sha256. Raw ops and deltas get it from
	// JobSpec.SequentialRaw; a named op gets it at warm-up, once the
	// returned vector has matched ref within tol.
	want  string
	ref   []float64
	delta *service.Delta // kind delta only
	seqNS int64          // one sequential step of the same input (roofline)
}

// served is a workload driven over HTTP against an irredd process.
type served struct {
	ops     []*op   // distinct ops; a job workload's warm-up runs each once
	streams [][]*op // per-client op sequence, replayed cyclically
	pos     []int   // per-client position in its stream

	// Session workloads: each client opens base[c] and streams deltas.
	base    []*op
	session []string
}

func (w *served) sessions() bool { return w.base != nil }

// pairWeights returns integral per-edge weights, so that every summation
// order gives the same bits and a raw result can be compared by SHA.
func pairWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(9))
	}
	return w
}

// rawOp builds a raw pair-reduction job over a mesh's edges.
func rawOp(name string, m *mesh.Mesh, w []float64, engine string, steps int) (*op, error) {
	spec := service.JobSpec{
		NumIters: m.NumEdges(), NumElems: m.NumNodes,
		Ind:     [][]int32{append([]int32(nil), m.I1...), append([]int32(nil), m.I2...)},
		Contrib: &service.ContribSpec{Kind: "pair", Weights: w},
		P:       2, K: 2, Dist: "cyclic", Steps: steps, Engine: engine,
	}
	o := &op{name: name, kind: "raw", spec: spec}
	x, err := spec.SequentialRaw()
	if err != nil {
		return nil, err
	}
	o.want = service.HashResult(x)
	o.seqNS = timeNS(func() { seqPair(spec.Ind, w, make([]float64, m.NumNodes)) })
	o.body, err = json.Marshal(spec)
	return o, err
}

// seqPair is one plain sequential sweep of a pair reduction.
func seqPair(ind [][]int32, w, x []float64) {
	a, b := ind[0], ind[1]
	for i := range a {
		x[a[i]] += w[i]
		x[b[i]] -= w[i]
	}
}

// timeNS runs fn once and returns its wall time.
func timeNS(fn func()) int64 {
	t0 := time.Now()
	fn()
	return int64(time.Since(t0))
}

// namedOp builds a named-kernel job and its sequential reference.
func namedOp(kernel, dataset string, seed int64, k int, dist string, steps int) (*op, error) {
	spec := service.JobSpec{Kernel: kernel, Dataset: dataset, Seed: seed, P: 2, K: k, Dist: dist, Steps: steps}
	o := &op{name: fmt.Sprintf("%s/%s/s%d/k%d/%s/%d", kernel, dataset, seed, k, dist, steps), kind: "named", spec: spec}
	switch kernel {
	case "mvm":
		mv := kernels.NewMVM(sparse.Generate(sparse.ClassS, uint64(seed)))
		o.ref = mv.RunSequential(steps)
		x, y := make([]float64, mv.A.N), make([]float64, mv.A.N)
		o.seqNS = timeNS(func() { mv.SequentialStep(x, y) })
	case "euler":
		eu := kernels.NewEuler(eulerMesh(seed), seed)
		o.ref = eu.RunSequential(steps)
		q, res := append([]float64(nil), eu.Q...), make([]float64, len(eu.Q))
		o.seqNS = timeNS(func() { eu.SequentialStep(q, res) })
	case "moldyn":
		md := kernels.NewMoldyn(moldyn.Paper2K(seed))
		o.ref, _ = md.RunSequential(steps)
		pos, vel := append([]float64(nil), md.Sys.Pos...), append([]float64(nil), md.Sys.Vel...)
		o.seqNS = timeNS(func() { md.SequentialStep(pos, vel, make([]float64, len(pos))) })
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	var err error
	o.body, err = json.Marshal(spec)
	return o, err
}

// eulerMesh is the paper's 2k mesh.
func eulerMesh(seed int64) *mesh.Mesh {
	n, e := mesh.Paper2K()
	return mesh.Generate(n, e, seed)
}

// size picks the full or the tiny (test) value.
func size(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

// smallMesh is the raw-job mesh: euler-2k-sized, or a few hundred edges in
// tiny mode.
func smallMesh(tiny bool, seed int64) *mesh.Mesh {
	if tiny {
		return mesh.Generate(300, 1800, seed)
	}
	return eulerMesh(seed)
}

// buildServeShort is warm, repeated short jobs: about three quarters named
// (mvm S, euler 2k, moldyn 2k; 3 steps, P=2, k in {1,2}, block or cyclic,
// two dataset seeds per kernel) and one quarter raw euler-2k-sized meshes
// split between the native and distributed engines.
func buildServeShort(seed int64, tiny bool) (*served, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &served{}
	var named, raw []*op
	seeds := []int64{1 + rng.Int63n(1<<20), 1 + rng.Int63n(1<<20)}
	ks, dists := []int{1, 2}, []string{"block", "cyclic"}
	if tiny {
		seeds, ks, dists = seeds[:1], ks[1:], dists[1:]
	}
	for _, kd := range [][2]string{{"mvm", "S"}, {"euler", "2k"}, {"moldyn", "2k"}} {
		for _, s := range seeds {
			for _, k := range ks {
				for _, dist := range dists {
					o, err := namedOp(kd[0], kd[1], s, k, dist, 3)
					if err != nil {
						return nil, err
					}
					named = append(named, o)
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		ms := 1 + rng.Int63n(1<<20)
		m := smallMesh(tiny, ms)
		wts := pairWeights(rng, m.NumEdges())
		for _, engine := range []string{"native", "distributed"} {
			o, err := rawOp(fmt.Sprintf("raw/%s/m%d", engine, ms), m, wts, engine, 3)
			if err != nil {
				return nil, err
			}
			raw = append(raw, o)
		}
	}
	w.ops = append(named, raw...)
	w.streams = mixStreams(rng, named, raw, 6, 2)
	return w, nil
}

// mixStreams builds each client's seeded op sequence from blocks of
// nNamed named and nRaw raw ops in shuffled order. Within each kind the
// ops come round-robin from a seeded permutation, so every window sees
// the same mix whatever the seed.
func mixStreams(rng *rand.Rand, named, raw []*op, nNamed, nRaw int) [][]*op {
	streams := make([][]*op, clients)
	for c := range streams {
		pn, pr := rng.Perm(len(named)), rng.Perm(len(raw))
		var i, j int
		for len(streams[c]) < 4096 {
			var block []*op
			for b := 0; b < nNamed; b, i = b+1, i+1 {
				block = append(block, named[pn[i%len(pn)]])
			}
			for b := 0; b < nRaw; b, j = b+1, j+1 {
				block = append(block, raw[pr[j%len(pr)]])
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			streams[c] = append(streams[c], block...)
		}
	}
	return streams
}

// buildStreamDeltas gives each client one session over its own
// euler-10k-sized mesh (raw pair, P=2 k=2, 3 steps) and a seeded cycle of
// mesh.Adapt deltas: most change 1-5% of the edges (Schedule.Update), one
// in eight changes 30% (past the 0.25 fallback, a full re-inspection), and
// the last restores the base mesh so the cycle can repeat for any window.
func buildStreamDeltas(seed int64, tiny bool) (*served, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &served{}
	n, e := mesh.Paper10K()
	cycle := size(tiny, 256, 16)
	for c := 0; c < clients; c++ {
		ms := 1 + rng.Int63n(1<<20)
		m := mesh.Generate(size(tiny, n, 400), size(tiny, e, 2400), ms)
		base, err := rawOp(fmt.Sprintf("session/m%d", ms), m, pairWeights(rng, m.NumEdges()), "", 3)
		if err != nil {
			return nil, err
		}
		w.base = append(w.base, base)
		baseI2 := append([]int32(nil), m.I2...)
		adaptSeed := rng.Int63()
		var stream []*op
		for s := 0; s <= cycle; s++ {
			var changed []int32
			if s < cycle {
				frac := 0.01 + 0.04*rng.Float64()
				if s%8 == 7 {
					frac = 0.30
				}
				changed = m.Adapt(s, frac, adaptSeed)
			} else {
				for i := range baseI2 {
					if m.I2[i] != baseI2[i] {
						changed = append(changed, int32(i))
						m.I2[i] = baseI2[i]
					}
				}
			}
			o, err := deltaOp(base, m, changed, s)
			if err != nil {
				return nil, err
			}
			stream = append(stream, o)
		}
		w.streams = append(w.streams, stream)
	}
	return w, nil
}

// deltaOp encodes one session delta and computes the SHA the session's
// result must have once it is applied.
func deltaOp(base *op, m *mesh.Mesh, changed []int32, s int) (*op, error) {
	pick := func(a []int32) []int32 {
		out := make([]int32, len(changed))
		for j, it := range changed {
			out[j] = a[it]
		}
		return out
	}
	d := &service.Delta{Changed: changed, Values: [][]int32{pick(m.I1), pick(m.I2)}}
	spec := base.spec
	spec.Ind = [][]int32{append([]int32(nil), m.I1...), append([]int32(nil), m.I2...)}
	x, err := spec.SequentialRaw()
	if err != nil {
		return nil, err
	}
	o := &op{name: fmt.Sprintf("%s/delta%d", base.name, s), kind: "delta", spec: spec, delta: d, want: service.HashResult(x), seqNS: base.seqNS}
	o.body, err = service.EncodeDelta(d)
	return o, err
}

// incremental reports whether the server takes the Schedule.Update path
// for a delta (irredd's default fallback fraction).
func (o *op) incremental() bool {
	return float64(len(o.delta.Changed)) <= service.DefaultFallbackFrac*float64(o.spec.NumIters)
}

// sample is one completed op as the client saw it.
type sample struct {
	op       *op
	end      time.Duration // completion, since the window started
	latNS    int64
	queuedMS float64 // server-side queue wait (JobStatus.queued_ms)
	runMS    float64 // server-side run (JobStatus.run_ms, or a session's inspect_ms+run_ms)
	retries  int
	cacheHit bool
	ok       bool
}

// post sends body, retrying 409 (session busy), 429 (shed) and 503
// (draining) with doubling backoff, and returns the final answer.
func post(url, ctype string, body []byte) (code int, out []byte, retries int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	backoff := 50 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, retries, err
		}
		req.Header.Set("Content-Type", ctype)
		resp, err := httpc.Do(req)
		if err != nil {
			return 0, nil, retries, err
		}
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, retries, err
		}
		switch resp.StatusCode {
		case http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			retries++
			select {
			case <-ctx.Done():
				return resp.StatusCode, out, retries, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 2*time.Second)
			continue
		}
		return resp.StatusCode, out, retries, nil
	}
}

// do sends one op of client c and checks its result SHA.
func (w *served) do(d *daemon, c int, o *op) sample {
	s := sample{op: o}
	t0 := time.Now()
	if o.kind == "delta" {
		code, body, retries, err := post(d.base+"/v1/session/"+w.session[c]+"/delta?result=0", "application/octet-stream", o.body)
		s.latNS, s.retries = int64(time.Since(t0)), retries
		var st service.SessionStatus
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &st) == nil {
			s.runMS = st.InspectMS + st.RunMS
			s.ok = st.ResultSHA256 == o.want
		}
		return s
	}
	code, body, retries, err := post(d.base+"/v1/jobs?wait=1&result=0", "application/json", o.body)
	s.latNS, s.retries = int64(time.Since(t0)), retries
	var st service.JobStatus
	if err == nil && code == http.StatusOK && json.Unmarshal(body, &st) == nil {
		s.queuedMS, s.runMS, s.cacheHit = st.QueuedMS, st.RunMS, st.CacheHit
		s.ok = st.State == service.StateDone && st.ResultSHA256 == o.want
	}
	return s
}

// warmup runs each distinct op once (opening the sessions, for a session
// workload) and checks every answer. A named op's full result vector is
// compared with its sequential reference here, which fixes the SHA its
// later answers must carry. It returns the number of failed checks.
func (w *served) warmup(d *daemon) (attempted, failed int) {
	w.pos = make([]int, clients)
	if w.sessions() {
		w.session = make([]string, clients)
		for c, o := range w.base {
			attempted++
			code, body, _, err := post(d.base+"/v1/session", "application/json", o.body)
			var st service.SessionStatus
			if err != nil || code != http.StatusCreated || json.Unmarshal(body, &st) != nil || st.ResultSHA256 != o.want {
				failed++
				continue
			}
			w.session[c] = st.ID
		}
		return attempted, failed
	}
	for _, o := range w.ops {
		attempted++
		if !w.warmOne(d, o) {
			failed++
		}
	}
	return attempted, failed
}

func (w *served) warmOne(d *daemon, o *op) bool {
	if o.kind != "named" {
		return w.do(d, 0, o).ok
	}
	code, body, _, err := post(d.base+"/v1/jobs?wait=1", "application/json", o.body)
	var st service.JobStatus
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.State != service.StateDone {
		return false
	}
	if !within(st.Result, o.ref) || service.HashResult(st.Result) != st.ResultSHA256 {
		return false
	}
	// The native engine's summation order is fixed by (P, k, dist), so
	// every later answer to this op must carry exactly this SHA.
	if o.want == "" {
		o.want = st.ResultSHA256
	}
	return o.want == st.ResultSHA256
}

// within reports whether got matches want within tol, elementwise.
func within(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*math.Max(1, math.Abs(want[i])) {
			return false
		}
	}
	return true
}

// opSeq numbers ops across the run, for span op ids.
var opSeq atomic.Int64

// window runs the closed loop: each client sends its next op as soon as
// the previous answer is in, until dur has passed; ops already sent when
// the time is up are completed and counted. With a tracer, each op gets a
// root span and a child span around the HTTP call.
func (w *served) window(d *daemon, dur time.Duration, tr *tracer) ([]sample, time.Duration) {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			for time.Since(start) < dur {
				o := w.streams[c][w.pos[c]%len(w.streams[c])]
				w.pos[c]++
				id := int(opSeq.Add(1))
				root := tr.begin("op", -1, id)
				call := tr.begin("wire.call", root, id)
				s := w.do(d, c, o)
				tr.end(call)
				tr.end(root)
				s.end = time.Since(start)
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}
