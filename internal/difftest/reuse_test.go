package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

// The schedule-reuse differential property: executing the later loops of a
// multi-loop program against the first loop's inspector schedules (the
// reuse the dataflow prover licenses) must be observationally invisible —
// reuse-on and reuse-off agree bitwise for integral data, within
// reassociation tolerance for floats, on every engine and every ownership
// strategy. Schedules are content-determined (inspector.ScheduleKey), so
// any divergence here means an engine mutates schedules during a run or
// the sharing plumbing corrupted state.

// reuseCase is one raw multi-loop program: every loop sweeps the same two
// indirection arrays (the proven-invariant traversal), contributing
// per-loop weights. Loops chain through one reduction array per sweep.
type reuseCase struct {
	iters, n int
	ind      [][]int32
	w        [][][]float64 // [loop][ref][iter]
}

func randReuseCase(rng *rand.Rand, loops int, integral bool) reuseCase {
	c := reuseCase{
		iters: 300 + rng.Intn(900),
		n:     40 + rng.Intn(200),
	}
	c.ind = make([][]int32, 2)
	for r := range c.ind {
		c.ind[r] = make([]int32, c.iters)
		for i := range c.ind[r] {
			c.ind[r][i] = int32(rng.Intn(c.n))
		}
	}
	c.w = make([][][]float64, loops)
	for l := range c.w {
		c.w[l] = make([][]float64, 2)
		for r := range c.w[l] {
			c.w[l][r] = make([]float64, c.iters)
			for i := range c.w[l][r] {
				if integral {
					c.w[l][r][i] = float64(1 + rng.Intn(8))
				} else {
					c.w[l][r][i] = rng.NormFloat64()
				}
			}
		}
	}
	return c
}

func (c reuseCase) contrib(l int) rts.ContribFunc {
	w := c.w[l]
	return func(_, i int, out []float64) {
		out[0] = w[0][i]
		out[1] = w[1][i]
	}
}

func (c reuseCase) loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Cfg: inspector.Config{
			P: p, K: k,
			NumIters: c.iters, NumElems: c.n,
			Dist: dist,
		},
		Mode: rts.Reduce,
		Ind:  c.ind,
	}
}

// sequential is the reference: loops in order, program order within each.
func (c reuseCase) sequential(steps int) []float64 {
	x := make([]float64, c.n)
	for s := 0; s < steps; s++ {
		for l := range c.w {
			for i := 0; i < c.iters; i++ {
				x[c.ind[0][i]] += c.w[l][0][i]
				x[c.ind[1][i]] += c.w[l][1][i]
			}
		}
	}
	return x
}

// schedules builds per-loop schedule sets: one shared set under reuse
// (inspected once), a fresh inspection per loop otherwise. It returns the
// sets and how many inspections were paid.
func (c reuseCase) schedules(p, k int, dist inspector.Dist, reuse bool) ([][]*inspector.Schedule, int, error) {
	sets := make([][]*inspector.Schedule, len(c.w))
	inspections := 0
	for l := range c.w {
		if reuse && l > 0 {
			sets[l] = sets[0]
			continue
		}
		s, err := c.loop(p, k, dist).Schedules()
		if err != nil {
			return nil, inspections, err
		}
		inspections++
		sets[l] = s
	}
	return sets, inspections, nil
}

// native runs the multi-loop program on the rotation engine: one Native
// per loop, all sharing one reduction array, loops in order per sweep.
func (c reuseCase) native(p, k int, dist inspector.Dist, steps int, reuse bool) ([]float64, int, error) {
	sets, inspections, err := c.schedules(p, k, dist, reuse)
	if err != nil {
		return nil, inspections, err
	}
	x := make([]float64, c.n)
	natives := make([]*rts.Native, len(c.w))
	for l := range c.w {
		nat, err := rts.NewNativeFrom(c.loop(p, k, dist), sets[l])
		if err != nil {
			return nil, inspections, err
		}
		nat.Contribs = c.contrib(l)
		nat.X = x
		natives[l] = nat
	}
	for s := 0; s < steps; s++ {
		for _, nat := range natives {
			if err := nat.Run(1); err != nil {
				return nil, inspections, err
			}
		}
	}
	return x, inspections, nil
}

// distributedML runs the multi-loop program on the message-passing engine,
// chaining the array between loops via Seed.
func (c reuseCase) distributedML(p, k int, dist inspector.Dist, steps int, reuse bool) ([]float64, int, error) {
	sets, inspections, err := c.schedules(p, k, dist, reuse)
	if err != nil {
		return nil, inspections, err
	}
	x := make([]float64, c.n)
	for s := 0; s < steps; s++ {
		for l := range c.w {
			d, err := rts.NewDistributedFrom(c.loop(p, k, dist), sets[l])
			if err != nil {
				return nil, inspections, err
			}
			d.Contribs = c.contrib(l)
			if err := d.Seed(x); err != nil {
				return nil, inspections, err
			}
			x, err = d.Run(1)
			if err != nil {
				return nil, inspections, err
			}
		}
	}
	return x, inspections, nil
}

// TestReuseOnOffAgreeAcrossEnginesAndStrategies is the raw-loop half of
// the oracle: native and distributed execution of a 3-loop program with
// schedule reuse on and off, over every ownership strategy, against the
// sequential reference. Integral cases demand bitwise equality;
// float cases tolerance. Reuse-on must pay exactly 1 inspection,
// reuse-off exactly one per loop.
func TestReuseOnOffAgreeAcrossEnginesAndStrategies(t *testing.T) {
	const loops, steps = 3, 2
	for ci, integral := range []bool{true, false} {
		rng := rand.New(rand.NewSource(int64(500 + ci)))
		c := randReuseCase(rng, loops, integral)
		want := c.sequential(steps)
		for _, st := range strategies {
			label := fmt.Sprintf("case %d (integral=%v) P=%d k=%d dist=%v", ci, integral, st.p, st.k, st.dist)
			for _, reuse := range []bool{true, false} {
				got, insp, err := c.native(st.p, st.k, st.dist, steps, reuse)
				if err != nil {
					t.Fatalf("%s native reuse=%v: %v", label, reuse, err)
				}
				if wantInsp := map[bool]int{true: 1, false: loops}[reuse]; insp != wantInsp {
					t.Fatalf("%s native reuse=%v paid %d inspections, want %d", label, reuse, insp, wantInsp)
				}
				compare(t, label+fmt.Sprintf(" native reuse=%v", reuse), got, want, integral)

				got, insp, err = c.distributedML(st.p, st.k, st.dist, steps, reuse)
				if err != nil {
					t.Fatalf("%s distributed reuse=%v: %v", label, reuse, err)
				}
				if wantInsp := map[bool]int{true: 1, false: loops}[reuse]; insp != wantInsp {
					t.Fatalf("%s distributed reuse=%v paid %d inspections, want %d", label, reuse, insp, wantInsp)
				}
				compare(t, label+fmt.Sprintf(" distributed reuse=%v", reuse), got, want, integral)
			}
		}
	}
}

// The compiled half: a CG-shaped two-loop IRL program whose reuse license
// the compiler proves, executed through every engine the plans support.
const cgDiffSrc = `
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

func cgDiffEnv(t *testing.T, u *codegen.Unit, ne, n int, seed int64) *interp.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("ne", ne)
	env.SetParam("n", n)
	row := make([]int32, ne)
	y := make([]float64, ne)
	for i := range row {
		row[i] = int32(rng.Intn(n))
	}
	for i := range y {
		y[i] = float64(1 + rng.Intn(50)) // integral: every comparison bitwise
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

// distributedExec runs one irregular plan on the message-passing engine,
// seeding from and scattering back to the environment.
func distributedExec(procs, k int, dist inspector.Dist) func(p *codegen.Plan, env *interp.Env) error {
	return func(p *codegen.Plan, env *interp.Env) error {
		loop, contribs, err := p.BuildLoop(env, procs, k, dist)
		if err != nil {
			return err
		}
		d, err := rts.NewDistributed(loop)
		if err != nil {
			return err
		}
		d.BatchContribs = contribs
		seed := make([]float64, loop.Cfg.NumElems*len(p.ReductionArrays()))
		if err := p.Pack(env, seed); err != nil {
			return err
		}
		if err := d.Seed(seed); err != nil {
			return err
		}
		x, err := d.Run(1)
		if err != nil {
			return err
		}
		return p.Scatter(env, x)
	}
}

// TestCompiledReuseAgreesAcrossEngines runs the compiled CG program with
// the runner's licensed reuse on and off, and cross-checks both against
// the distributed and tree-fold executions of the same plans — bitwise,
// for every ownership strategy.
func TestCompiledReuseAgreesAcrossEngines(t *testing.T) {
	u, err := codegen.Compile(cgDiffSrc)
	if err != nil {
		t.Fatal(err)
	}
	const ne, n, steps, seed = 600, 71, 3, 33

	// The tree-fold and distributed references are strategy-independent
	// checks of the same program; compute the tree-fold one once.
	tfEnv := cgDiffEnv(t, u, ne, n, seed)
	for s := 0; s < steps; s++ {
		if err := runPlans(u, tfEnv, treeFoldExec(4)); err != nil {
			t.Fatal(err)
		}
	}

	for _, st := range strategies {
		label := fmt.Sprintf("P=%d k=%d dist=%v", st.p, st.k, st.dist)

		on, err := u.NewRunnerOpts(cgDiffEnv(t, u, ne, n, seed), st.p, st.k, st.dist, codegen.RunnerOpts{VerifyReuse: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if on.Inspections() != 1 || on.Reuses() != 1 {
			t.Fatalf("%s: reuse-on inspections=%d reuses=%d, want 1/1", label, on.Inspections(), on.Reuses())
		}
		off, err := u.NewRunnerOpts(cgDiffEnv(t, u, ne, n, seed), st.p, st.k, st.dist, codegen.RunnerOpts{NoReuse: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if off.Inspections() != 2 {
			t.Fatalf("%s: reuse-off inspections=%d, want 2", label, off.Inspections())
		}
		if err := on.Run(steps); err != nil {
			t.Fatalf("%s reuse-on: %v", label, err)
		}
		if err := off.Run(steps); err != nil {
			t.Fatalf("%s reuse-off: %v", label, err)
		}

		dEnv := cgDiffEnv(t, u, ne, n, seed)
		for s := 0; s < steps; s++ {
			if err := runPlans(u, dEnv, distributedExec(st.p, st.k, st.dist)); err != nil {
				t.Fatalf("%s distributed: %v", label, err)
			}
		}

		for _, a := range []string{"q", "z"} {
			ref := off.Env.Floats[a]
			compare(t, label+" reuse-on vs reuse-off "+a, on.Env.Floats[a], ref, true)
			compare(t, label+" distributed vs reuse-off "+a, dEnv.Floats[a], ref, true)
			compare(t, label+" tree-fold vs reuse-off "+a, tfEnv.Floats[a], ref, true)
		}
	}
}
