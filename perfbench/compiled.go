package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/lang"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// irlSteps is how many Runner steps one irl-compiled op runs.
const irlSteps = 5

// program is one IRL source of the irl-compiled workload with its inputs
// and expected outputs, computed before the clock starts.
type program struct {
	src     string
	params  map[string]int
	ints    map[string][]int32
	floats  map[string][]float64
	want    map[string][]float64 // expected reduction arrays after irlSteps steps
	native  func() (*rts.Native, error)
	seqStep func()
}

// bind builds a fresh environment over the unit's program with the
// program's inputs bound and every other array allocated.
func (pr *program) bind(prog *lang.Program) (*interp.Env, error) {
	env := interp.NewEnv(prog)
	for k, v := range pr.params {
		env.SetParam(k, v)
	}
	for k, v := range pr.ints {
		if err := env.BindInt(k, v); err != nil {
			return nil, err
		}
	}
	for k, v := range pr.floats {
		if err := env.BindFloat(k, v); err != nil {
			return nil, err
		}
	}
	return env, env.Alloc()
}

// check compares the environment's reduction arrays with the oracle.
func (pr *program) check(env *interp.Env) bool {
	for name, want := range pr.want {
		if !within(env.Floats[name], want) {
			return false
		}
	}
	return true
}

// compiled is the in-process irl-compiled workload.
type compiled struct {
	progs  []*program
	stream []*program
	pos    int
}

// buildCompiled prepares the kernels' mvm, euler and moldyn IRL and
// examples/irl/cg.irl over class S or 2k inputs. The oracles are the
// hand-written Go kernels (mvm, euler, moldyn) and the interpreter's tree
// walk of the unfissioned source (cg) — never the compiler's own output.
func buildCompiled(root string, seed int64, tiny bool) (*compiled, error) {
	rng := rand.New(rand.NewSource(seed))
	cls := sparse.ClassS
	if tiny {
		cls = sparse.Class{Name: "t", N: 200, NNZ: 1600}
	}
	cg, err := os.ReadFile(filepath.Join(root, "examples", "irl", "cg.irl"))
	if err != nil {
		return nil, err
	}
	w := &compiled{}
	for _, mk := range []func() (*program, error){
		func() (*program, error) { return mvmProgram(sparse.Generate(cls, uint64(1+rng.Int63n(1<<20))), rng) },
		func() (*program, error) { return eulerProgram(smallMesh(tiny, 1+rng.Int63n(1<<20)), rng.Int63()) },
		func() (*program, error) {
			if tiny {
				return moldynProgram(moldyn.Generate(3, 1, 0.02, rng.Int63()))
			}
			return moldynProgram(moldyn.Paper2K(rng.Int63()))
		},
		func() (*program, error) {
			return cgProgram(string(cg), sparse.Generate(cls, uint64(1+rng.Int63n(1<<20))), rng)
		},
	} {
		pr, err := mk()
		if err != nil {
			return nil, err
		}
		w.progs = append(w.progs, pr)
	}
	for i := 0; i < 4096; i++ {
		w.stream = append(w.stream, w.progs[rng.Intn(len(w.progs))])
	}
	return w, nil
}

// nativeFor wires a hand-written kernel's loop onto the native engine with
// its schedules built up front, so timing it measures the engine alone.
func nativeFor(l *rts.Loop, wire func(n *rts.Native)) func() (*rts.Native, error) {
	return func() (*rts.Native, error) {
		scheds, err := l.Schedules()
		if err != nil {
			return nil, err
		}
		n, err := rts.NewNativeFrom(l, scheds)
		if err != nil {
			return nil, err
		}
		wire(n)
		return n, nil
	}
}

func mvmProgram(a *sparse.CSR, rng *rand.Rand) (*program, error) {
	x := make([]float64, a.N)
	for i := range x {
		x[i] = rng.Float64()
	}
	// y accumulates A*x once per step.
	ax := make([]float64, a.N)
	a.MulVec(x, ax)
	y := make([]float64, a.N)
	for s := 0; s < irlSteps; s++ {
		for i := range y {
			y[i] += ax[i]
		}
	}
	mv := kernels.NewMVM(a)
	return &program{
		src:    kernels.MVMIRL,
		params: map[string]int{"nnz": a.NNZ(), "n": a.N},
		ints:   map[string][]int32{"row": a.RowOfNZ(), "col": a.Col},
		floats: map[string][]float64{"a": a.Val, "x": x},
		want:   map[string][]float64{"y": y},
		native: func() (*rts.Native, error) { return mv.NewNative(2, 2, inspector.Cyclic) },
		seqStep: func() {
			mv.SequentialStep(append([]float64(nil), x...), make([]float64, a.N))
		},
	}, nil
}

func eulerProgram(m *mesh.Mesh, seed int64) (*program, error) {
	eu := kernels.NewEuler(m, seed)
	// The kernel's flux sums, read back through one sequential step with
	// Dt = 1: q1 = q0 + res.
	ref := kernels.NewEuler(m, seed)
	ref.Dt = 1
	q := append([]float64(nil), ref.Q...)
	ref.SequentialStep(q, make([]float64, len(q)))
	ia := make([]int32, 2*m.NumEdges())
	for i := range m.I1 {
		ia[2*i], ia[2*i+1] = m.I1[i], m.I2[i]
	}
	pr := &program{
		src:    kernels.EulerIRL,
		params: map[string]int{"num_edges": m.NumEdges(), "num_nodes": m.NumNodes},
		ints:   map[string][]int32{"ia": ia},
		floats: map[string][]float64{"w": eu.W},
		want:   map[string][]float64{},
		native: func() (*rts.Native, error) {
			n, _, err := eu.NewNative(2, 2, inspector.Cyclic)
			return n, err
		},
		seqStep: func() {
			eu.SequentialStep(append([]float64(nil), eu.Q...), make([]float64, len(eu.Q)))
		},
	}
	for c := 0; c < 3; c++ {
		qc, rc := make([]float64, m.NumNodes), make([]float64, m.NumNodes)
		for e := range qc {
			qc[e] = eu.Q[3*e+c]
			rc[e] = irlSteps * (q[3*e+c] - ref.Q[3*e+c])
		}
		pr.floats[fmt.Sprintf("q%d", c+1)] = qc
		pr.want[fmt.Sprintf("r%d", c+1)] = rc
	}
	return pr, nil
}

func moldynProgram(sys *moldyn.System) (*program, error) {
	md := kernels.NewMoldyn(sys)
	// The IRL variant is the free-space force law: the kernel's minimum
	// image never wraps in an infinite box. With Dt = 1 and zero initial
	// velocity, one sequential step leaves the summed forces in vel.
	free := *sys
	free.Box = math.Inf(1)
	ref := kernels.NewMoldyn(&free)
	ref.Dt = 1
	pos := append([]float64(nil), sys.Pos...)
	vel := make([]float64, len(pos))
	ref.SequentialStep(pos, vel, make([]float64, len(pos)))
	ia := make([]int32, 2*sys.NumInteractions())
	for i := range sys.I1 {
		ia[2*i], ia[2*i+1] = sys.I1[i], sys.I2[i]
	}
	pr := &program{
		src:    kernels.MoldynIRL,
		params: map[string]int{"num_inter": sys.NumInteractions(), "num_mol": sys.N},
		ints:   map[string][]int32{"ia": ia},
		floats: map[string][]float64{},
		want:   map[string][]float64{},
		native: func() (*rts.Native, error) {
			n, _, _, err := md.NewNative(2, 2, inspector.Cyclic)
			return n, err
		},
		seqStep: func() {
			p := append([]float64(nil), sys.Pos...)
			md.SequentialStep(p, append([]float64(nil), sys.Vel...), make([]float64, len(p)))
		},
	}
	for c, axis := range []string{"x", "y", "z"} {
		pc, fc := make([]float64, sys.N), make([]float64, sys.N)
		for m := range pc {
			pc[m] = sys.Pos[3*m+c]
			fc[m] = irlSteps * vel[3*m+c]
		}
		pr.floats["p"+axis] = pc
		pr.want["f"+axis] = fc
	}
	return pr, nil
}

func cgProgram(src string, a *sparse.CSR, rng *rand.Rand) (*program, error) {
	p := make([]float64, a.N)
	for i := range p {
		p[i] = rng.Float64()
	}
	pr := &program{
		src:    src,
		params: map[string]int{"nnz": a.NNZ(), "n": a.N},
		ints:   map[string][]int32{"row": a.RowOfNZ()},
		floats: map[string][]float64{"a": a.Val, "p": p},
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	env, err := pr.bind(prog)
	if err != nil {
		return nil, err
	}
	for s := 0; s < irlSteps; s++ {
		if err := env.Run(); err != nil {
			return nil, err
		}
	}
	pr.want = map[string][]float64{"q": env.Floats["q"], "z": env.Floats["z"]}
	return pr, nil
}

// irlTimes are one op's layer times.
type irlTimes struct {
	compile, bind, runner, steps time.Duration
	inspections, reuses          int
}

// runOp compiles, binds, builds the Runner and steps it: one irl-compiled
// op. The returned env holds the outputs for the check.
func runOp(pr *program, tr *tracer, root, id int) (*interp.Env, irlTimes, error) {
	var t irlTimes
	t0 := time.Now()
	sp := tr.begin("compiler.compile", root, id)
	u, err := codegen.CompileOptimized(pr.src)
	tr.end(sp)
	t1 := time.Now()
	t.compile = t1.Sub(t0)
	if err != nil {
		return nil, t, err
	}
	sp = tr.begin("interp.bind", root, id)
	env, err := pr.bind(u.Fissioned)
	tr.end(sp)
	t2 := time.Now()
	t.bind = t2.Sub(t1)
	if err != nil {
		return nil, t, err
	}
	sp = tr.begin("compiler.runner_build", root, id)
	r, err := u.NewRunner(env, 2, 2, inspector.Cyclic)
	tr.end(sp)
	t3 := time.Now()
	t.runner = t3.Sub(t2)
	if err != nil {
		return nil, t, err
	}
	t.inspections, t.reuses = r.Inspections(), r.Reuses()
	for s := 0; s < irlSteps; s++ {
		sp = tr.begin("interp.step", root, id)
		err = r.Step()
		tr.end(sp)
		if err != nil {
			return nil, t, err
		}
	}
	t.steps = time.Since(t3)
	return env, t, nil
}

// setup compiles and binds every program once: the irl-compiled set-up.
func (w *compiled) setup() error {
	for _, pr := range w.progs {
		u, err := codegen.CompileOptimized(pr.src)
		if err != nil {
			return err
		}
		if _, err := pr.bind(u.Fissioned); err != nil {
			return err
		}
	}
	return nil
}

// irlSample is one completed irl-compiled op.
type irlSample struct {
	prog  *program
	end   time.Duration // completion, since the window started
	latNS int64
	t     irlTimes
	ok    bool
}

// window runs ops back to back on one goroutine until dur has passed.
func (w *compiled) window(dur time.Duration, tr *tracer) ([]irlSample, time.Duration) {
	var out []irlSample
	start := time.Now()
	for time.Since(start) < dur {
		pr := w.stream[w.pos%len(w.stream)]
		w.pos++
		id := int(opSeq.Add(1))
		root := tr.begin("op", -1, id)
		t0 := time.Now()
		env, t, err := runOp(pr, tr, root, id)
		lat := int64(time.Since(t0))
		tr.end(root)
		out = append(out, irlSample{prog: pr, end: time.Since(start), latNS: lat, t: t, ok: err == nil && pr.check(env)})
	}
	return out, time.Since(start)
}
