package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestPaperSizesExact(t *testing.T) {
	for _, tc := range []struct{ nodes, edges int }{
		{2800, 17377},
		{9428, 59863},
	} {
		m := Generate(tc.nodes, tc.edges, 1)
		if m.NumNodes != tc.nodes || m.NumEdges() != tc.edges {
			t.Fatalf("got %d nodes %d edges, want %d/%d", m.NumNodes, m.NumEdges(), tc.nodes, tc.edges)
		}
		if err := m.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(500, 3000, 42)
	b := Generate(500, 3000, 42)
	for i := range a.I1 {
		if a.I1[i] != b.I1[i] || a.I2[i] != b.I2[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestCoarseEdgeOrdering(t *testing.T) {
	// Edges are emitted in element-traversal order: coarse windows of the
	// list move monotonically through the node range, even though entries
	// within a window are unordered.
	m := Generate(1000, 6000, 1)
	const windows = 8
	w := m.NumEdges() / windows
	var prevMean float64 = -1
	for b := 0; b < windows; b++ {
		var sum float64
		for i := b * w; i < (b+1)*w; i++ {
			sum += float64(m.I1[i])
		}
		mean := sum / float64(w)
		if mean <= prevMean {
			t.Fatalf("window %d mean %.0f not increasing past %.0f", b, mean, prevMean)
		}
		prevMean = mean
	}
}

func TestEndpointLocality(t *testing.T) {
	// Mesh edges connect spatial neighbours: endpoint index distance must
	// be far below the random expectation (~nodes/3).
	m := Generate(2800, 17377, 1)
	var sum float64
	for i := range m.I1 {
		sum += math.Abs(float64(m.I1[i]) - float64(m.I2[i]))
	}
	avg := sum / float64(m.NumEdges())
	if avg > float64(m.NumNodes)/8 {
		t.Fatalf("avg endpoint distance %.0f — no spatial locality", avg)
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	m := Generate(300, 1500, 3)
	s := m.Shuffled(4)
	if s.NumEdges() != m.NumEdges() {
		t.Fatal("edge count changed")
	}
	count := func(mm *Mesh) map[[2]int32]int {
		c := map[[2]int32]int{}
		for i := range mm.I1 {
			c[[2]int32{mm.I1[i], mm.I2[i]}]++
		}
		return c
	}
	a, b := count(m), count(s)
	if len(a) != len(b) {
		t.Fatal("edge multiset changed")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("edge %v count changed", k)
		}
	}
	// And the order must actually differ somewhere.
	same := true
	for i := range m.I1 {
		if m.I1[i] != s.I1[i] || m.I2[i] != s.I2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shuffle did nothing")
	}
}

func TestMutateRewires(t *testing.T) {
	m := Generate(300, 1500, 3)
	orig := append([]int32(nil), m.I2...)
	n := m.Mutate(0.10, 99)
	if n != 150 {
		t.Fatalf("mutated %d, want 150", n)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range orig {
		if m.I2[i] != orig[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("mutation changed nothing")
	}
}

func TestDegreeSum(t *testing.T) {
	m := Generate(200, 900, 5)
	deg := m.Degree()
	sum := 0
	for _, d := range deg {
		sum += d
	}
	if sum != 2*m.NumEdges() {
		t.Fatalf("degree sum %d, want %d", sum, 2*m.NumEdges())
	}
}

// Property: any feasible (nodes, edges) request yields exactly that size
// and a valid mesh.
func TestGenerateProperty(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		nodes := 27 + int(nRaw)
		edges := nodes + int(eRaw)%(3*nodes)
		m := Generate(nodes, edges, seed)
		return m.NumNodes == nodes && m.NumEdges() == edges && m.Check() == nil
	}
	if err := quick.Check(prop, quickseed.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for infeasible edge count")
		}
	}()
	Generate(27, 10000, 1)
}
