package difftest

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

// The compiled-pipeline matrix: every IRL program the benchmark runs,
// compiled and stepped by codegen.Runner (blocked contributions on the
// native engine, schedule reuse on), must reproduce the tree-walking
// interpreter's Env.Run of the unfissioned source — bitwise on integral
// data, within the float tolerance for moldyn. The sizes put a phase's
// iterations above, at and below one contribution block, including
// phases with none.

func cgSized(t *testing.T) func(rng *rand.Rand, nnz, n int) kernelCase {
	src, err := os.ReadFile("../../examples/irl/cg.irl")
	if err != nil {
		t.Fatal(err)
	}
	return func(rng *rand.Rand, nnz, n int) kernelCase {
		row := make([]int32, nnz)
		a := make([]float64, nnz)
		p := make([]float64, n)
		for i := range row {
			row[i] = int32(rng.Intn(n))
			a[i] = float64(1 + rng.Intn(8))
		}
		for e := range p {
			p[e] = float64(1 + rng.Intn(8))
		}
		return kernelCase{
			name: "cg", src: string(src), arrays: []string{"q", "z"}, exact: true,
			bind: func(env *interp.Env) error {
				env.SetParam("nnz", nnz)
				env.SetParam("n", n)
				if err := env.BindInt("row", row); err != nil {
					return err
				}
				if err := env.BindFloat("a", a); err != nil {
					return err
				}
				return env.BindFloat("p", p)
			},
		}
	}
}

func TestRunnerMatchesInterpreter(t *testing.T) {
	const steps = 2
	sized := []func(*rand.Rand, int, int) kernelCase{mvmSized, eulerSized, moldynSized, cgSized(t)}
	// Iteration counts: fewer than one phase each at P*k = 8 (5), one
	// block plus one at P = k = 1 (ContribBlock+1), and several blocks
	// with a ragged tail (3*ContribBlock-45).
	for _, iters := range []int{5, rts.ContribBlock + 1, 3*rts.ContribBlock - 45} {
		for ci, mk := range sized {
			kc := mk(rand.New(rand.NewSource(int64(100*iters+ci))), iters, 23)
			u, err := codegen.Compile(kc.src)
			if err != nil {
				t.Fatalf("%s: compile: %v", kc.name, err)
			}
			mkEnv := func(prog *codegen.Unit, fissioned bool) *interp.Env {
				p := prog.Source
				if fissioned {
					p = prog.Fissioned
				}
				env := interp.NewEnv(p)
				if err := kc.bind(env); err != nil {
					t.Fatalf("%s: bind: %v", kc.name, err)
				}
				if err := env.Alloc(); err != nil {
					t.Fatalf("%s: alloc: %v", kc.name, err)
				}
				return env
			}
			ref := mkEnv(u, false)
			for s := 0; s < steps; s++ {
				if err := ref.Run(); err != nil {
					t.Fatalf("%s: reference run: %v", kc.name, err)
				}
			}
			for procs := 1; procs <= 4; procs++ {
				for k := 1; k <= 2; k++ {
					for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
						label := fmt.Sprintf("%s iters=%d P=%d k=%d %v", kc.name, iters, procs, k, dist)
						env := mkEnv(u, true)
						r, err := u.NewRunner(env, procs, k, dist)
						if err != nil {
							t.Fatalf("%s: runner: %v", label, err)
						}
						if err := r.Run(steps); err != nil {
							t.Fatalf("%s: run: %v", label, err)
						}
						for _, a := range kc.arrays {
							compare(t, label+" "+a, env.Floats[a], ref.Floats[a], kc.exact)
						}
					}
				}
			}
		}
	}
}
