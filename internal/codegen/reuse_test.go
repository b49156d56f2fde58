package codegen

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
)

// The CG shape: consecutive sweeps over one indirection into different
// accumulators, the reuse license's bread and butter.
const cgTestSrc = `
param ne, n
array row[ne] int
array y[ne]
array q[n]
array z[n]
loop i = 0, ne {
    q[row[i]] += y[i]
}
loop i = 0, ne {
    z[row[i]] += y[i] * 2
}
`

// The euler2 shape: a boundary loop rewires part of the indirection
// between two otherwise identical sweeps, so reuse must be refused.
const rewireTestSrc = `
param ne, n, nb
array row[ne] int
array y[ne]
array q[n]
loop i = 0, ne {
    q[row[i]] += y[i]
}
loop j = 0, nb {
    row[j] = 0
}
loop i = 0, ne {
    q[row[i]] += y[i]
}
`

func cgEnv(t *testing.T, u *Unit, ne, n int, seed int64) *interp.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("ne", ne)
	env.SetParam("n", n)
	env.SetParam("nb", ne/2)
	row := make([]int32, ne)
	y := make([]float64, ne)
	for i := range row {
		row[i] = int32(rng.Intn(n))
	}
	for i := range y {
		y[i] = float64(rng.Intn(100)) // integral: bitwise comparison below
	}
	if err := env.BindInt("row", row); err != nil {
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

func TestRunnerSharesSchedulesUnderReuseLicense(t *testing.T) {
	u, err := Compile(cgTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if u.Reuse == nil {
		t.Fatal("compile produced no reuse license")
	}
	if got := u.Reuse.ReuseOf(1); got != 0 {
		t.Fatalf("ReuseOf(plan 1) = %d, want 0\n%s", got, u.Reuse.Report())
	}
	const ne, n = 400, 53

	r, err := u.NewRunner(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inspections() != 1 || r.Reuses() != 1 {
		t.Fatalf("inspections = %d, reuses = %d; want 1 and 1", r.Inspections(), r.Reuses())
	}

	// VerifyReuse must be satisfied: the grant's content key hits.
	rv, err := u.NewRunnerOpts(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic, RunnerOpts{VerifyReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Reuses() != 1 {
		t.Fatalf("VerifyReuse runner reuses = %d, want 1", rv.Reuses())
	}

	// Reuse on and off must agree bitwise (integral data).
	off, err := u.NewRunnerOpts(cgEnv(t, u, ne, n, 8), 4, 2, inspector.Cyclic, RunnerOpts{NoReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Inspections() != 2 || off.Reuses() != 0 {
		t.Fatalf("NoReuse runner inspections = %d, reuses = %d; want 2 and 0", off.Inspections(), off.Reuses())
	}
	const steps = 3
	if err := r.Run(steps); err != nil {
		t.Fatal(err)
	}
	if err := off.Run(steps); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"q", "z"} {
		on, ref := r.Env.Floats[a], off.Env.Floats[a]
		for i := range ref {
			if on[i] != ref[i] {
				t.Fatalf("array %s: reuse-on %v != reuse-off %v at %d", a, on[i], ref[i], i)
			}
		}
	}
}

func TestRunnerRefusesReuseAfterRewire(t *testing.T) {
	u, err := Compile(rewireTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Reuse.Grants) != 0 {
		t.Fatalf("rewire program got %d reuse grant(s)\n%s", len(u.Reuse.Grants), u.Reuse.Report())
	}
	r, err := u.NewRunner(cgEnv(t, u, 400, 53, 9), 4, 2, inspector.Block)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inspections() != 2 || r.Reuses() != 0 {
		t.Fatalf("inspections = %d, reuses = %d; want 2 and 0", r.Inspections(), r.Reuses())
	}
}

func TestRunnerRejectsForgedReuseLicense(t *testing.T) {
	u, err := Compile(rewireTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the grant the prover refused. Verify runs inside
	// NewRunnerOpts and must reject the whole runner.
	forged := &dataflow.ReuseGrant{From: 0, To: 2, Arrays: []string{"row"}}
	u.Reuse.Grants = append(u.Reuse.Grants, forged)
	_, err = u.NewRunner(cgEnv(t, u, 400, 53, 10), 4, 2, inspector.Block)
	if err == nil {
		t.Fatal("runner accepted a forged reuse grant")
	}
	if !strings.Contains(err.Error(), "refusing schedule reuse") {
		t.Fatalf("error %q does not refuse reuse", err)
	}
	// Reuse off ignores the license entirely and still runs.
	if _, err := u.NewRunnerOpts(cgEnv(t, u, 400, 53, 10), 4, 2, inspector.Block, RunnerOpts{NoReuse: true}); err != nil {
		t.Fatalf("NoReuse runner failed: %v", err)
	}
}

// TestRunnerStepReportsRangeFault: a checked read that escapes its array
// (col[3] = 99 indexes x[4]) is clamped so the sweep finishes, but Step
// must fail with the recorded fault, as the interpreter's Env.Run does.
func TestRunnerStepReportsRangeFault(t *testing.T) {
	u, err := Compile(kernels.MVMIRL)
	if err != nil {
		t.Fatal(err)
	}
	bind := func(env *interp.Env) { bindMVM4(t, env, []int32{0, 1, 2, 99}) }
	ref := interp.NewEnv(u.Source)
	bind(ref)
	if err := ref.Run(); err == nil {
		t.Fatal("Env.Run must reject x[col[3]] = x[99]")
	}
	env := interp.NewEnv(u.Fissioned)
	bind(env)
	r, err := u.NewRunner(env, 2, 1, inspector.Block)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Step()
	if err == nil {
		t.Fatalf("Step returned nil; y = %v", env.Floats["y"])
	}
	if !strings.Contains(err.Error(), "x[col[i]] dim 0: subscript 99 out of range [0, 4)") {
		t.Errorf("Step error should name the faulting access: %v", err)
	}
	if perr := u.Plans[0].RuntimeErr(); perr == nil || perr.Error() != err.Error() {
		t.Errorf("Step error %v, plan RuntimeErr %v", err, perr)
	}
}

// bindMVM4 binds a 4x4 MVMIRL instance with the given column indices.
func bindMVM4(t *testing.T, env *interp.Env, col []int32) {
	t.Helper()
	env.SetParam("nnz", 4)
	env.SetParam("n", 4)
	for name, v := range map[string][]int32{"row": {0, 1, 2, 3}, "col": col} {
		if err := env.BindInt(name, v); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range map[string][]float64{"a": {1, 2, 3, 4}, "x": {5, 6, 7, 8}} {
		if err := env.BindFloat(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerFaultIsItsOwn: two runners built from one Unit each report
// their own evaluators' faults. A faulting runner built before a clean one
// must still fail its step, and the clean one must not inherit the fault.
func TestRunnerFaultIsItsOwn(t *testing.T) {
	u, err := Compile(kernels.MVMIRL)
	if err != nil {
		t.Fatal(err)
	}
	runner := func(col []int32) *Runner {
		env := interp.NewEnv(u.Fissioned)
		bindMVM4(t, env, col)
		r, err := u.NewRunner(env, 2, 1, inspector.Block)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	bad := runner([]int32{0, 1, 2, 99})
	good := runner([]int32{0, 1, 2, 3})
	if err := bad.Step(); err == nil {
		t.Fatalf("faulting runner stepped clean; y = %v", bad.Env.Floats["y"])
	}
	if err := good.Step(); err != nil {
		t.Fatalf("clean runner failed with another runner's fault: %v", err)
	}
	if got, want := good.Env.Floats["y"], []float64{5, 12, 21, 32}; !slices.Equal(got, want) {
		t.Errorf("clean runner y = %v, want %v", got, want)
	}
}
