package codegen

import (
	"math"
	"strings"
	"testing"

	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

// readIndirection reduces into y through one indirection and reads x
// through a second, independent one — so corrupting col defeats only the
// read proof while the schedule stays valid.
const readIndirection = `
param n, m
array row[n] int
array col[n] int
array x[m]
array y[m]
loop i = 0, n {
    y[row[i]] += x[col[i]] * 2.0
}
`

func bindReadIndirection(t *testing.T, u *Unit, row, col []int32, m int) *interp.Env {
	t.Helper()
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("n", len(row))
	env.SetParam("m", m)
	if err := env.BindInt("row", row); err != nil {
		t.Fatal(err)
	}
	if err := env.BindInt("col", col); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = float64(i + 1)
	}
	if err := env.BindFloat("x", x); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestBuildLoopCarriesProof(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	env := bindFigure1(t, u, 300, 32, 21)
	p := u.Plans[0]
	loop, _, err := p.BuildLoop(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if p.Facts == nil {
		t.Fatal("BuildLoop must record a proof artifact")
	}
	if !p.Facts.AllProven {
		t.Fatalf("figure1 with scanned ia must prove every obligation:\n%s", p.Facts.Report())
	}
	if !p.Facts.IndProven || p.Facts.NumElems != 32 {
		t.Fatalf("indirection claim missing: %+v", p.Facts)
	}
	if loop.Proof != p.Facts {
		t.Fatal("loop must carry the proof")
	}
	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	if nat.CheckTargets {
		t.Fatal("proof-carrying loop must elide native target checks")
	}
	if p.codes[0].NumChecks() != 0 {
		t.Fatalf("fully proven body compiled with %d checks", p.codes[0].NumChecks())
	}
	if !strings.Contains(p.Facts.Report(), "complete (unchecked execution)") {
		t.Errorf("report should state unchecked execution:\n%s", p.Facts.Report())
	}
}

func TestForceCheckedKeepsChecks(t *testing.T) {
	u, err := Compile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	env := bindFigure1(t, u, 300, 32, 22)
	p := u.Plans[0]
	loop, _, err := p.BuildLoopOpts(env, 4, 2, inspector.Cyclic, BuildOpts{ForceChecked: true})
	if err != nil {
		t.Fatal(err)
	}
	if loop.Proof != nil {
		t.Fatal("ForceChecked must not hand the proof to the runtime")
	}
	if p.Facts == nil || !p.Facts.AllProven {
		t.Fatal("the proof is still computed and recorded on the plan")
	}
	if p.codes[0].NumChecks() == 0 {
		t.Fatal("ForceChecked body must keep its range checks")
	}
	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	if !nat.CheckTargets {
		t.Fatal("ForceChecked loop must keep native target checks")
	}
}

// The ISSUE's acceptance demo: deliberately out-of-range input makes the
// proof incomplete, the affected access falls back to checked execution,
// and the run completes with a recorded fault instead of a panic.
func TestDeliberateOOBFallsBackToChecked(t *testing.T) {
	u, err := Compile(readIndirection)
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 64, 16
	row := make([]int32, n)
	col := make([]int32, n)
	for i := range row {
		row[i] = int32(i % m)
		col[i] = int32((i * 3) % m)
	}
	col[5] = m + 7 // deliberately out of range

	env := bindReadIndirection(t, u, row, col, m)
	p := u.Plans[0]
	loop, contribs, err := p.BuildLoop(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if p.Facts.AllProven {
		t.Fatal("out-of-range col must defeat the full proof")
	}
	if !p.Facts.IndProven {
		t.Fatal("row is in range, so the rotated-array claim still holds")
	}
	if !strings.Contains(p.Facts.Report(), "INCOMPLETE") {
		t.Errorf("report should state the fallback:\n%s", p.Facts.Report())
	}

	nat, err := rts.NewNative(loop)
	if err != nil {
		t.Fatal(err)
	}
	nat.BatchContribs = contribs
	if err := nat.Run(1); err != nil {
		t.Fatalf("checked fallback must complete the run: %v", err)
	}
	ferr := p.RuntimeErr()
	if ferr == nil {
		t.Fatal("the out-of-range access must surface as a recorded fault")
	}
	if !strings.Contains(ferr.Error(), "x[col[i]]") {
		t.Errorf("fault should name the access: %v", ferr)
	}

	// Every iteration except the faulting one matches the sequential
	// interpretation with the same clamp-to-zero semantics.
	want := make([]float64, m)
	for i := 0; i < n; i++ {
		c := int(col[i])
		if c >= m {
			c = 0 // checked execution clamps the faulting access
		}
		want[int(row[i])] += float64(c+1) * 2
	}
	for e := 0; e < m; e++ {
		if math.Abs(nat.X[e]-want[e]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", e, nat.X[e], want[e])
		}
	}
}

// With valid data the same program proves completely, including the read
// through the second indirection.
func TestReadIndirectionProvenWhenValid(t *testing.T) {
	u, err := Compile(readIndirection)
	if err != nil {
		t.Fatal(err)
	}
	const n, m = 64, 16
	row := make([]int32, n)
	col := make([]int32, n)
	for i := range row {
		row[i] = int32(i % m)
		col[i] = int32((i * 5) % m)
	}
	env := bindReadIndirection(t, u, row, col, m)
	p := u.Plans[0]
	_, _, err = p.BuildLoop(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Facts.AllProven {
		t.Fatalf("valid data must prove the loop:\n%s", p.Facts.Report())
	}
	if p.RuntimeErr() != nil {
		t.Fatal("no run yet, no faults")
	}
}
