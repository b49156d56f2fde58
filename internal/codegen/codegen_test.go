package codegen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

const figure1 = `
param num_edges, num_nodes
array ia[num_edges, 2] int
array x[num_nodes]
array y[num_edges]
array c[num_nodes]
loop i = 0, num_edges {
    x[ia[i, 0]] += y[i] * c[ia[i, 0]]
    x[ia[i, 1]] += y[i] * c[ia[i, 1]]
}
`

// bindFigure1 creates an environment with random data for figure1.
func bindFigure1(t *testing.T, u *Unit, edges, nodes int, seed int64) *interp.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("num_edges", edges)
	env.SetParam("num_nodes", nodes)
	ia := make([]int32, edges*2)
	for i := range ia {
		ia[i] = int32(rng.Intn(nodes))
	}
	if err := env.BindInt("ia", ia); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, edges)
	cArr := make([]float64, nodes)
	for i := range y {
		y[i] = rng.Float64()
	}
	for i := range cArr {
		cArr[i] = rng.Float64()
	}
	if err := env.BindFloat("y", y); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("c", cArr); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestCompileFigure1(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 {
		t.Fatalf("plans = %d", len(u.Plans))
	}
	p := u.Plans[0]
	if p.Kind != Irregular {
		t.Fatal("figure1 loop not classified irregular")
	}
	if got := p.ReductionArrays(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("reduction arrays = %v", got)
	}
	cost := p.EstimateCost(1)
	if cost.Flops == 0 || cost.IterArrays != 1 || cost.NodeArrays != 2 {
		t.Fatalf("cost estimate wrong: %+v", cost)
	}
}

// The headline end-to-end test: compile Figure 1, run it through the full
// phase runtime (LightInspector + portion rotation on goroutines), and
// compare against the direct sequential interpretation.
func TestCompiledLoopMatchesInterpreter(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	const edges, nodes = 500, 64

	// Sequential reference via the interpreter.
	ref := bindFigure1(t, u, edges, nodes, 7)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Floats["x"]

	for _, procs := range []int{1, 2, 4} {
		for _, k := range []int{1, 2} {
			env := bindFigure1(t, u, edges, nodes, 7)
			loop, contribs, err := u.Plans[0].BuildLoop(env, procs, k, inspector.Cyclic)
			if err != nil {
				t.Fatal(err)
			}
			nat, err := rts.NewNative(loop)
			if err != nil {
				t.Fatal(err)
			}
			nat.BatchContribs = contribs
			if err := nat.Run(1); err != nil {
				t.Fatal(err)
			}
			if err := u.Plans[0].Scatter(env, nat.X); err != nil {
				t.Fatal(err)
			}
			got := env.Floats["x"]
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("P=%d k=%d: x[%d] = %v, want %v", procs, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCompiledFissionedProgram(t *testing.T) {
	src := `
param n, m
array ia[n, 2] int
array ja[n] int
array x[m]
array z[m]
array y[n]
loop i = 0, n {
    t = y[i] * 2
    x[ia[i, 0]] += t
    x[ia[i, 1]] += t + 1
    z[ja[i]] -= t * 3
}
`
	u, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Prologue (temp array) + 2 irregular loops.
	var irr, reg int
	for _, p := range u.Plans {
		if p.Kind == Irregular {
			irr++
		} else {
			reg++
		}
	}
	if irr != 2 || reg != 1 {
		t.Fatalf("plans: %d irregular, %d regular; want 2/1", irr, reg)
	}

	const n, m = 300, 41
	mkEnv := func() *interp.Env {
		rng := rand.New(rand.NewSource(3))
		env := interp.NewEnv(u.Fissioned)
		env.SetParam("n", n)
		env.SetParam("m", m)
		ia := make([]int32, 2*n)
		ja := make([]int32, n)
		y := make([]float64, n)
		for i := range ia {
			ia[i] = int32(rng.Intn(m))
		}
		for i := range ja {
			ja[i] = int32(rng.Intn(m))
		}
		for i := range y {
			y[i] = rng.Float64()
		}
		for name, data := range map[string][]int32{"ia": ia, "ja": ja} {
			if err := env.BindInt(name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := env.BindFloat("y", y); err != nil {
			t.Fatal(err)
		}
		if err := env.Alloc(); err != nil {
			t.Fatal(err)
		}
		return env
	}

	// Reference: run the fissioned program sequentially.
	ref := mkEnv()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	// Parallel: regular plans run via the interpreter, irregular plans on
	// the phase runtime.
	env := mkEnv()
	for _, p := range u.Plans {
		if p.Kind == Regular {
			if err := env.RunLoop(p.Loop); err != nil {
				t.Fatal(err)
			}
			continue
		}
		loop, contribs, err := p.BuildLoop(env, 3, 2, inspector.Block)
		if err != nil {
			t.Fatal(err)
		}
		nat, err := rts.NewNative(loop)
		if err != nil {
			t.Fatal(err)
		}
		nat.BatchContribs = contribs
		if err := nat.Run(1); err != nil {
			t.Fatal(err)
		}
		if err := p.Scatter(env, nat.X); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []string{"x", "z"} {
		for i := range ref.Floats[a] {
			if math.Abs(env.Floats[a][i]-ref.Floats[a][i]) > 1e-9 {
				t.Fatalf("array %s diverged at %d", a, i)
			}
		}
	}
}

func TestDescribeMentionsSectionsAndGroups(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	d := u.Describe()
	for _, want := range []string{
		"reduction section",
		"ia[0:num_edges:1, 0]",
		"ia[0:num_edges:1, 1]",
		"reference group 0",
		"no fission needed",
	} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe lacks %q:\n%s", want, d)
		}
	}
}

func TestThreadedCListing(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	s := u.Plans[0].ThreadedC()
	for _, want := range []string{
		"THREADED",
		"LIGHTINSPECTOR",
		"BLKMOV_SYNC",
		"SYNC_SLOTS",
		"second loop",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("listing lacks %q:\n%s", want, s)
		}
	}
}

func TestThreadedCRegular(t *testing.T) {
	u, err := Compile(`
param n
array a[n]
loop i = 0, n { a[i] = 1 }
`)
	if err != nil {
		t.Fatal(err)
	}
	s := u.Plans[0].ThreadedC()
	if !strings.Contains(s, "regular loop") {
		t.Fatalf("regular listing wrong:\n%s", s)
	}
}

func TestGroupedArraysShareRotation(t *testing.T) {
	// Two reduction arrays in one reference group pack as components.
	src := `
param n, m
array ia[n, 2] int
array x[m]
array z[m]
array y[n]
loop i = 0, n {
    x[ia[i, 0]] += y[i]
    x[ia[i, 1]] += y[i]
    z[ia[i, 0]] += y[i] * 2
    z[ia[i, 1]] -= y[i]
}
`
	u, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 {
		t.Fatalf("plans = %d, want 1 (one group)", len(u.Plans))
	}
	rng := rand.New(rand.NewSource(5))
	const n, m = 200, 32
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("n", n)
	env.SetParam("m", m)
	ia := make([]int32, 2*n)
	for i := range ia {
		ia[i] = int32(rng.Intn(m))
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.Float64()
	}
	if err := env.BindInt("ia", ia); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("y", y); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	loop, contribs, err := u.Plans[0].BuildLoop(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if loop.Cost.Comp != 2 {
		t.Fatalf("comp = %d, want 2", loop.Cost.Comp)
	}
	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	nat.BatchContribs = contribs
	if err := nat.Run(1); err != nil {
		t.Fatal(err)
	}
	if err := u.Plans[0].Scatter(env, nat.X); err != nil {
		t.Fatal(err)
	}
	// Sequential check.
	wantX := make([]float64, m)
	wantZ := make([]float64, m)
	for i := 0; i < n; i++ {
		wantX[ia[2*i]] += y[i]
		wantX[ia[2*i+1]] += y[i]
		wantZ[ia[2*i]] += y[i] * 2
		wantZ[ia[2*i+1]] -= y[i]
	}
	for i := 0; i < m; i++ {
		if math.Abs(env.Floats["x"][i]-wantX[i]) > 1e-9 || math.Abs(env.Floats["z"][i]-wantZ[i]) > 1e-9 {
			t.Fatalf("grouped arrays diverged at %d", i)
		}
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("loop i = 0, n { }"); err == nil {
		t.Fatal("parse error not propagated")
	}
	if _, err := Compile(`
param n, m
array ia[n] int
array x[m]
loop i = 0, n { x[ia[i]] = 1 }
`); err == nil {
		t.Fatal("analysis error not propagated")
	}
}

// TestRunnerMultiStep drives a whole compiled program — prologue, two
// irregular loops, and a regular decay loop — for several timesteps and
// compares against pure interpretation.
func TestRunnerMultiStep(t *testing.T) {
	src := `
param n, m
array ia[n, 2] int
array ja[n] int
array x[m]
array z[m]
array y[n]
loop i = 0, n {
    t = y[i] * 2
    x[ia[i, 0]] += t
    x[ia[i, 1]] += t + 1
    z[ja[i]] -= t * 3
}
loop e = 0, m {
    x[e] = x[e] * 0.5
    z[e] = z[e] * 0.25
}
`
	u, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	const n, m, steps = 400, 53, 4
	mkEnv := func(prog bool) *interp.Env {
		rng := rand.New(rand.NewSource(8))
		var env *interp.Env
		if prog {
			env = interp.NewEnv(u.Fissioned)
		} else {
			env = interp.NewEnv(u.Source)
		}
		env.SetParam("n", n)
		env.SetParam("m", m)
		ia := make([]int32, 2*n)
		ja := make([]int32, n)
		y := make([]float64, n)
		for i := range ia {
			ia[i] = int32(rng.Intn(m))
		}
		for i := range ja {
			ja[i] = int32(rng.Intn(m))
		}
		for i := range y {
			y[i] = rng.Float64()
		}
		if err := env.BindInt("ia", ia); err != nil {
			t.Fatal(err)
		}
		if err := env.BindInt("ja", ja); err != nil {
			t.Fatal(err)
		}
		if err := env.BindFloat("y", y); err != nil {
			t.Fatal(err)
		}
		if err := env.Alloc(); err != nil {
			t.Fatal(err)
		}
		return env
	}

	ref := mkEnv(false)
	for s := 0; s < steps; s++ {
		if err := ref.Run(); err != nil {
			t.Fatal(err)
		}
	}

	env := mkEnv(true)
	r, err := u.NewRunner(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(steps); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"x", "z"} {
		for i := range ref.Floats[a] {
			if math.Abs(env.Floats[a][i]-ref.Floats[a][i]) > 1e-9 {
				t.Fatalf("array %s diverged at %d after %d steps", a, i, steps)
			}
		}
	}
}

func TestRunnerBadShape(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(u.Fissioned)
	if _, err := u.NewRunner(env, 0, 2, inspector.Block); err == nil {
		t.Fatal("procs=0 accepted")
	}
}
