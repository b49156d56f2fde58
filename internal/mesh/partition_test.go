package mesh

import (
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestRCBBalance(t *testing.T) {
	m := Generate(2800, 17377, 1)
	for _, p := range []int{2, 3, 4, 7, 8, 16, 32} {
		pt := m.RCB(p)
		if err := pt.Check(m); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		sizes := pt.Sizes()
		want := m.NumNodes / p
		for i, s := range sizes {
			if s < want-p || s > want+p+1 {
				t.Fatalf("P=%d: part %d has %d nodes, want ~%d (%v)", p, i, s, want, sizes)
			}
		}
	}
}

func TestRCBCutsFewEdges(t *testing.T) {
	// A geometric partitioner must cut far fewer edges than a random
	// assignment would: random cuts ~ (1-1/P) of edges.
	m := Generate(2800, 17377, 1)
	pt := m.RCB(8)
	cut := pt.CutEdges(m)
	randomExpect := m.NumEdges() * 7 / 8
	if cut >= randomExpect/3 {
		t.Fatalf("RCB cut %d of %d edges; geometric partitioning should cut far fewer than %d",
			cut, m.NumEdges(), randomExpect)
	}
	if cut == 0 {
		t.Fatal("a connected mesh split into 8 parts must cut some edges")
	}
}

func TestRCBSinglePart(t *testing.T) {
	m := Generate(100, 500, 2)
	pt := m.RCB(1)
	if err := pt.Check(m); err != nil {
		t.Fatal(err)
	}
	if pt.CutEdges(m) != 0 {
		t.Fatal("one part cannot cut edges")
	}
}

func TestRenumberPreservesStructure(t *testing.T) {
	m := Generate(500, 3000, 3)
	pt := m.RCB(4)
	r := m.Renumber(pt)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.NumNodes != m.NumNodes || r.NumEdges() != m.NumEdges() {
		t.Fatal("renumbering changed mesh size")
	}
	// Degree multiset is preserved (renumbering is a node permutation).
	a, b := m.Degree(), r.Degree()
	ca := map[int]int{}
	cb := map[int]int{}
	for i := range a {
		ca[a[i]]++
		cb[b[i]]++
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("degree multiset changed: %d nodes of degree %d -> %d", v, k, cb[k])
		}
	}
	// Renumbered edges are sorted by first endpoint.
	for i := 1; i < r.NumEdges(); i++ {
		if r.I1[i] < r.I1[i-1] {
			t.Fatal("renumbered edge list unsorted")
		}
	}
}

func TestRenumberImprovesBlockAlignment(t *testing.T) {
	// After partition renumbering, a block distribution of nodes matches
	// the partition: edges crossing block boundaries equal RCB cut edges
	// (up to rounding), which is far below the unpartitioned count.
	m := Generate(2800, 17377, 1)
	const p = 8
	pt := m.RCB(p)
	r := m.Renumber(pt)
	blockOf := func(n int32, mm *Mesh) int { return int(n) * p / mm.NumNodes }
	crossing := func(mm *Mesh) int {
		c := 0
		for i := range mm.I1 {
			if blockOf(mm.I1[i], mm) != blockOf(mm.I2[i], mm) {
				c++
			}
		}
		return c
	}
	before, after := crossing(m), crossing(r)
	if after >= before {
		t.Fatalf("renumbering did not reduce block-crossing edges: %d -> %d", before, after)
	}
}

func TestRCBDeterministic(t *testing.T) {
	m := Generate(300, 1500, 9)
	a, b := m.RCB(6), m.RCB(6)
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatal("RCB not deterministic")
		}
	}
}

// Property: any feasible mesh and part count yields a valid partition with
// every node assigned.
func TestRCBProperty(t *testing.T) {
	prop := func(seed int64, nRaw, pRaw uint8) bool {
		nodes := 27 + int(nRaw)
		edges := nodes + int(nRaw)%nodes
		p := 1 + int(pRaw)%9
		m := Generate(nodes, edges, seed)
		pt := m.RCB(p)
		return pt.Check(m) == nil
	}
	if err := quick.Check(prop, quickseed.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestRCBZeroPartsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=0")
		}
	}()
	Generate(100, 400, 1).RCB(0)
}
