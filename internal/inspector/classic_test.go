package inspector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

// emulateClassic executes the classic owner-computes executor: local
// compute into owned elements and ghost accumulators, then scatter-reduce.
func emulateClassic(cfg Config, cs *ClassicSchedule, contrib func(i, r int) float64) []float64 {
	x := make([]float64, cfg.NumElems)
	for _, cp := range cs.Procs {
		ghostAcc := make([]float64, len(cp.Ghosts))
		for j, it := range cp.Iters {
			for r := range cp.Ind {
				v := contrib(int(it), r)
				if tgt := int(cp.Ind[r][j]); tgt < cfg.NumElems {
					x[tgt] += v
				} else {
					ghostAcc[tgt-cfg.NumElems] += v
				}
			}
		}
		// Scatter-reduce ghosts to their owners.
		for _, slots := range cp.SendTo {
			for _, g := range slots {
				x[cp.Ghosts[g]] += ghostAcc[g]
			}
		}
	}
	return x
}

func TestClassicMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{1, 2, 4, 7} {
		for _, d := range []Dist{Block, Cyclic} {
			cfg := Config{P: p, K: 1, NumIters: 200, NumElems: 53, Dist: d}
			ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
			cs, err := ClassicInspect(cfg, ind...)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Check(ind...); err != nil {
				t.Fatal(err)
			}
			contrib := func(i, r int) float64 { return float64(i)*1.5 + float64(r) }
			got := emulateClassic(cfg, cs, contrib)
			want := sequential(cfg, ind, contrib)
			if !almostEqual(got, want) {
				t.Fatalf("P=%d %v: classic executor diverged", p, d)
			}
		}
	}
}

func TestClassicGhostDedup(t *testing.T) {
	// Many references to the same remote element make one ghost.
	cfg := Config{P: 2, K: 1, NumIters: 10, NumElems: 10, Dist: Block}
	ind := make([]int32, 10)
	for i := range ind {
		ind[i] = 9 // owned by proc 1
	}
	cs, err := ClassicInspect(cfg, ind)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cs.Procs[0].Ghosts); n != 1 {
		t.Fatalf("proc 0 ghosts = %d, want 1", n)
	}
	if n := len(cs.Procs[1].Ghosts); n != 0 {
		t.Fatalf("proc 1 ghosts = %d, want 0", n)
	}
	if cs.GhostBytes(0) != 12 {
		t.Fatalf("GhostBytes = %d", cs.GhostBytes(0))
	}
}

func TestClassicNoGhostsWhenLocal(t *testing.T) {
	// Iterations referencing only their own processor's block: no ghosts,
	// no inspector exchange traffic.
	cfg := Config{P: 2, K: 1, NumIters: 10, NumElems: 10, Dist: Block}
	ind := make([]int32, 10)
	for i := range ind {
		if i < 5 {
			ind[i] = int32(i) // proc 0 owns elements 0..4
		} else {
			ind[i] = int32(i) // proc 1 owns elements 5..9
		}
	}
	cs, err := ClassicInspect(cfg, ind)
	if err != nil {
		t.Fatal(err)
	}
	if cs.TotalGhosts() != 0 || cs.InspectorExchangedBytes != 0 {
		t.Fatalf("ghosts=%d bytes=%d, want 0", cs.TotalGhosts(), cs.InspectorExchangedBytes)
	}
}

func TestClassicElemPartition(t *testing.T) {
	cfg := Config{P: 3, K: 1, NumIters: 1, NumElems: 10}
	covered := make([]int, 10)
	for p := 0; p < 3; p++ {
		lo, hi := classicElemRange(cfg, p)
		for e := lo; e < hi; e++ {
			covered[e]++
			if classicOwnerOfElem(cfg, e) != p {
				t.Fatalf("owner(%d) != %d", e, p)
			}
		}
	}
	for e, n := range covered {
		if n != 1 {
			t.Fatalf("element %d covered %d times", e, n)
		}
	}
}

func TestClassicErrors(t *testing.T) {
	if _, err := ClassicInspect(Config{P: 0, K: 1, NumIters: 1, NumElems: 1}, []int32{0}); err == nil {
		t.Error("bad P accepted")
	}
	if _, err := ClassicInspect(Config{P: 1, K: 1, NumIters: 1, NumElems: 1}); err == nil {
		t.Error("missing indirection accepted")
	}
	if _, err := ClassicInspect(Config{P: 1, K: 1, NumIters: 2, NumElems: 1}, []int32{0}); err == nil {
		t.Error("short indirection accepted")
	}
	if _, err := ClassicInspect(Config{P: 1, K: 1, NumIters: 1, NumElems: 1}, []int32{5}); err == nil {
		t.Error("out-of-range indirection accepted")
	}
}

// Property: classic executor equivalence for random shapes.
func TestClassicEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, pRaw, nRaw, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{P: 1 + int(pRaw)%6, K: 1, NumIters: int(nRaw), NumElems: 1 + int(eRaw)}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
		cs, err := ClassicInspect(cfg, ind...)
		if err != nil || cs.Check(ind...) != nil {
			return false
		}
		contrib := func(i, r int) float64 { return float64(i + r + 1) }
		return almostEqual(emulateClassic(cfg, cs, contrib), sequential(cfg, ind, contrib))
	}
	if err := quick.Check(prop, quickseed.Config(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// The headline comparison: the LightInspector needs no communication while
// the classic inspector's exchange grows with the ghost count.
func TestLightInspectorNeedsNoExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := Config{P: 8, K: 2, NumIters: 5000, NumElems: 1000, Dist: Cyclic}
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	cs, err := ClassicInspect(cfg, ind...)
	if err != nil {
		t.Fatal(err)
	}
	if cs.InspectorExchangedBytes == 0 {
		t.Fatal("expected the classic inspector to need communication on a random workload")
	}
	// Light runs per-processor with no cross-processor inputs at all: the
	// API takes only this processor's id — nothing to exchange.
	for p := 0; p < cfg.P; p++ {
		if _, err := Light(cfg, p, ind...); err != nil {
			t.Fatal(err)
		}
	}
}
