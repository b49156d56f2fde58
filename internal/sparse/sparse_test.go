package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestGenerateClassS(t *testing.T) {
	m := Generate(ClassS, 0)
	if m.N != ClassS.N {
		t.Fatalf("N = %d", m.N)
	}
	if m.NNZ() != ClassS.NNZ {
		t.Fatalf("NNZ = %d, want %d (paper-exact)", m.NNZ(), ClassS.NNZ)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(ClassS, 7)
	b := Generate(ClassS, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nnz differ")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	c := Generate(ClassS, 8)
	same := true
	for i := range a.Col {
		if i < len(c.Col) && a.Col[i] != c.Col[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestDiagonalPresent(t *testing.T) {
	m := Generate(ClassS, 0)
	for i := 0; i < m.N; i++ {
		cols, _ := m.Row(i)
		found := false
		for _, c := range cols {
			if int(c) == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("row %d missing diagonal", i)
		}
	}
}

func TestMulVecSmall(t *testing.T) {
	// [[2 1 0],[0 3 0],[4 0 5]] * [1 2 3] = [4 6 19]
	m := &CSR{
		N:      3,
		RowPtr: []int32{0, 2, 3, 5},
		Col:    []int32{0, 1, 1, 0, 2},
		Val:    []float64{2, 1, 3, 4, 5},
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 3)
	m.MulVec([]float64{1, 2, 3}, y)
	want := []float64{4, 6, 19}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestRowOfNZ(t *testing.T) {
	m := Generate(Class{Name: "tiny", N: 50, NNZ: 300}, 0)
	rows := m.RowOfNZ()
	if len(rows) != m.NNZ() {
		t.Fatalf("len = %d", len(rows))
	}
	for i := 0; i < m.N; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			if rows[j] != int32(i) {
				t.Fatalf("nz %d: row %d, want %d", j, rows[j], i)
			}
		}
	}
}

func TestNASRandRange(t *testing.T) {
	r := NewRand(0)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %v out of (0,1)", v)
		}
	}
}

func TestNASRandKnownSequence(t *testing.T) {
	// The NAS LCG from seed 314159265 is fully determined; pin the first
	// value so the generator can never silently change.
	r := NewRand(0)
	got := r.Float64()
	// x1 = (314159265 * 5^13) mod 2^46.
	want := float64((uint64(314159265)*uint64(nasA))&nasMsk) / float64(nasMod)
	if got != want {
		t.Fatalf("first value %v, want %v", got, want)
	}
}

func TestIntnBounds(t *testing.T) {
	prop := func(seed uint64, nRaw uint16) bool {
		n := 1 + int(nRaw)
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickseed.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: generated matrices always pass Check and have exact NNZ. The
// domain is the valid classes only: up to n-1 extras per row, so a small n
// at a high density draw is capped at the full matrix (an overfull class
// panics, which TestGenerateOverfullPanics covers).
func TestGenerateProperty(t *testing.T) {
	prop := func(seed uint64, nRaw, dRaw uint8) bool {
		n := 10 + int(nRaw)
		nnz := n + min(int(dRaw)*n/16, n*(n-1))
		m := Generate(Class{Name: "q", N: n, NNZ: nnz}, seed)
		return m.Check() == nil && m.NNZ() == nnz
	}
	if err := quick.Check(prop, quickseed.Config(t, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := Generate(Class{Name: "tiny", N: 10, NNZ: 30}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	m.MulVec(make([]float64, 5), make([]float64, 10))
}
