package inspector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

// mutateInd flips n random entries of the indirection arrays and returns
// the affected iteration list.
func mutateInd(rng *rand.Rand, ind [][]int32, nElems, n int) []int32 {
	changed := map[int32]bool{}
	for j := 0; j < n; j++ {
		r := rng.Intn(len(ind))
		i := rng.Intn(len(ind[r]))
		ind[r][i] = int32(rng.Intn(nElems))
		changed[int32(i)] = true
	}
	out := make([]int32, 0, len(changed))
	for i := range changed {
		out = append(out, i)
	}
	return out
}

// emulateScheds runs one sweep with prebuilt schedules (the incremental
// counterpart of emulate in light_test.go).
func emulateScheds(cfg Config, scheds []*Schedule, contrib func(i, r int) float64) []float64 {
	x := make([]float64, cfg.NumElems)
	bufs := make([][]float64, cfg.P)
	for p := range scheds {
		bufs[p] = make([]float64, scheds[p].BufLen)
	}
	for ph := 0; ph < cfg.NumPhases(); ph++ {
		for p := 0; p < cfg.P; p++ {
			s := scheds[p]
			prog := &s.Phases[ph]
			for _, cp := range prog.Copies {
				x[cp.Elem] += bufs[p][int(cp.Buf)-cfg.NumElems]
				bufs[p][int(cp.Buf)-cfg.NumElems] = 0
			}
			for j, it := range prog.Iters {
				for r := range prog.Ind {
					v := contrib(int(it), r)
					if tgt := int(prog.Ind[r][j]); tgt < cfg.NumElems {
						x[tgt] += v
					} else {
						bufs[p][tgt-cfg.NumElems] += v
					}
				}
			}
		}
	}
	return x
}

func TestIncrementalUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{P: 4, K: 2, NumIters: 500, NumElems: 97, Dist: Cyclic}
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)

	scheds := make([]*Schedule, cfg.P)
	for p := range scheds {
		s, err := Light(cfg, p, ind...)
		if err != nil {
			t.Fatal(err)
		}
		scheds[p] = s
	}

	contrib := func(i, r int) float64 { return float64(i+1) * float64(r+1) }
	for round := 0; round < 10; round++ {
		changed := mutateInd(rng, ind, cfg.NumElems, 25)
		for p := range scheds {
			if err := scheds[p].Update(changed, ind...); err != nil {
				t.Fatalf("round %d proc %d: %v", round, p, err)
			}
			if err := scheds[p].Check(ind...); err != nil {
				t.Fatalf("round %d proc %d: %v", round, p, err)
			}
		}
		got := emulateScheds(cfg, scheds, contrib)
		want := sequential(cfg, ind, contrib)
		if !almostEqual(got, want) {
			t.Fatalf("round %d: incremental schedule diverged from sequential", round)
		}
	}
}

func TestIncrementalSlotReuse(t *testing.T) {
	// Mutating the same iterations back and forth must not grow the buffer
	// without bound: freed slots are recycled.
	cfg := Config{P: 2, K: 2, NumIters: 40, NumElems: 16, Dist: Block}
	rng := rand.New(rand.NewSource(5))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	maxBuf := s.BufLen + 4 // slack for transient element churn
	for round := 0; round < 200; round++ {
		changed := mutateInd(rng, ind, cfg.NumElems, 4)
		if err := s.Update(changed, ind...); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(ind...); err != nil {
		t.Fatal(err)
	}
	// The live element set stays bounded by the number of distinct
	// deferred elements (at most NumElems), so slots must be recycled
	// rather than always appended.
	if s.BufLen > cfg.NumElems && s.BufLen > maxBuf+cfg.NumElems {
		t.Fatalf("BufLen grew to %d after churn (started at %d)", s.BufLen, maxBuf-4)
	}
}

func TestIncrementalIgnoresForeignIterations(t *testing.T) {
	cfg := Config{P: 2, K: 1, NumIters: 20, NumElems: 8, Dist: Block}
	rng := rand.New(rand.NewSource(6))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumIters()
	// Mutate only iterations owned by processor 1 (block: 10..19).
	ind[0][15] = 3
	if err := s.Update([]int32{15}, ind...); err != nil {
		t.Fatal(err)
	}
	if s.NumIters() != before {
		t.Fatal("foreign iteration changed this processor's schedule")
	}
	if err := s.Check(ind...); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalErrors(t *testing.T) {
	cfg := Config{P: 1, K: 1, NumIters: 4, NumElems: 4}
	ind := [][]int32{{0, 1, 2, 3}}
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update([]int32{0}, ind[0], ind[0]); err == nil {
		t.Error("wrong reference count accepted")
	}
	if err := s.Update([]int32{99}, ind[0]); err == nil {
		t.Error("out-of-range iteration accepted")
	}
	bad := []int32{0, 1, 2, 9}
	if err := s.Update([]int32{3}, bad); err == nil {
		t.Error("out-of-range element accepted")
	}
	if err := s.Update([]int32{1}, []int32{0, 1, 2}); err == nil {
		t.Error("short indirection accepted")
	}
}

// Property: any mutation sequence keeps Update-maintained schedules
// equivalent to freshly built ones.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, pRaw, kRaw, mutRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			P: 1 + int(pRaw)%5, K: 1 + int(kRaw)%3,
			NumIters: 120, NumElems: 31, Dist: Cyclic,
		}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
		scheds := make([]*Schedule, cfg.P)
		for p := range scheds {
			s, err := Light(cfg, p, ind...)
			if err != nil {
				return false
			}
			scheds[p] = s
		}
		changed := mutateInd(rng, ind, cfg.NumElems, 1+int(mutRaw)%30)
		for p := range scheds {
			if err := scheds[p].Update(changed, ind...); err != nil {
				return false
			}
			if err := scheds[p].Check(ind...); err != nil {
				return false
			}
		}
		contrib := func(i, r int) float64 { return float64(i + r*1000) }
		return almostEqual(emulateScheds(cfg, scheds, contrib), sequential(cfg, ind, contrib))
	}
	if err := quick.Check(prop, quickseed.Config(t, 40)); err != nil {
		t.Fatal(err)
	}
}
