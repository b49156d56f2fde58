package inspector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

// emulate executes one sweep of the phase machine for every processor and
// returns the resulting reduction array. contrib(i, r) is the value
// iteration i adds through reference r. Within a phase, processors touch
// disjoint portions, so executing them sequentially is equivalent.
func emulate(t *testing.T, cfg Config, ind [][]int32, contrib func(i int, r int) float64) []float64 {
	t.Helper()
	x := make([]float64, cfg.NumElems)
	scheds := make([]*Schedule, cfg.P)
	bufs := make([][]float64, cfg.P)
	for p := 0; p < cfg.P; p++ {
		s, err := Light(cfg, p, ind...)
		if err != nil {
			t.Fatalf("Light(p=%d): %v", p, err)
		}
		if err := s.Check(ind...); err != nil {
			t.Fatalf("Check(p=%d): %v", p, err)
		}
		scheds[p] = s
		bufs[p] = make([]float64, s.BufLen)
	}
	for ph := 0; ph < cfg.NumPhases(); ph++ {
		for p := 0; p < cfg.P; p++ {
			s := scheds[p]
			prog := &s.Phases[ph]
			for _, cp := range prog.Copies {
				b := int(cp.Buf) - cfg.NumElems
				x[cp.Elem] += bufs[p][b]
				bufs[p][b] = 0
			}
			for j, it := range prog.Iters {
				for r := range prog.Ind {
					v := contrib(int(it), r)
					tgt := int(prog.Ind[r][j])
					if tgt < cfg.NumElems {
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

// sequential is the reference loop of Figure 1.
func sequential(cfg Config, ind [][]int32, contrib func(i, r int) float64) []float64 {
	x := make([]float64, cfg.NumElems)
	for i := 0; i < cfg.NumIters; i++ {
		for r := range ind {
			x[ind[r][i]] += contrib(i, r)
		}
	}
	return x
}

func randInd(rng *rand.Rand, nIters, nElems, refs int) [][]int32 {
	ind := make([][]int32, refs)
	for r := range ind {
		ind[r] = make([]int32, nIters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(nElems))
		}
	}
	return ind
}

func almostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -1e-9 || d > 1e-9 {
			return false
		}
	}
	return true
}

func TestOwnershipMapInvariants(t *testing.T) {
	for _, cfg := range []Config{
		{P: 2, K: 2, NumIters: 20, NumElems: 8},
		{P: 4, K: 1, NumIters: 100, NumElems: 64},
		{P: 3, K: 4, NumIters: 50, NumElems: 37},
		{P: 8, K: 2, NumIters: 1000, NumElems: 999},
	} {
		kp := cfg.NumPhases()
		for ph := 0; ph < kp; ph++ {
			seen := map[int]bool{}
			for p := 0; p < cfg.P; p++ {
				q := cfg.PortionAt(p, ph)
				if seen[q] {
					t.Fatalf("cfg %+v phase %d: portion %d owned twice", cfg, ph, q)
				}
				seen[q] = true
				if got := cfg.OwnerAt(q, ph); got != p {
					t.Fatalf("OwnerAt(%d,%d) = %d, want %d", q, ph, got, p)
				}
			}
		}
		// Each portion owned by each processor exactly once per sweep; a
		// portion is live only every k-th phase.
		for q := 0; q < kp; q++ {
			owners := map[int]int{}
			live := 0
			for ph := 0; ph < kp; ph++ {
				if p := cfg.OwnerAt(q, ph); p >= 0 {
					owners[p]++
					live++
				}
			}
			if live != cfg.P {
				t.Fatalf("portion %d live %d phases, want %d", q, live, cfg.P)
			}
			for p, n := range owners {
				if n != 1 {
					t.Fatalf("portion %d owned by proc %d %d times", q, p, n)
				}
			}
		}
		// PhaseOf inverts PortionAt.
		for p := 0; p < cfg.P; p++ {
			for e := 0; e < cfg.NumElems; e++ {
				ph := cfg.PhaseOf(p, e)
				lo, hi := cfg.PortionBounds(cfg.PortionAt(p, ph))
				if e < lo || e >= hi {
					t.Fatalf("PhaseOf(%d,%d)=%d does not own element", p, e, ph)
				}
			}
		}
	}
}

func TestOwnershipMigratesToPreviousProc(t *testing.T) {
	cfg := Config{P: 4, K: 2, NumIters: 10, NumElems: 16}
	kp := cfg.NumPhases()
	for q := 0; q < kp; q++ {
		var prev = -1
		for ph := q % cfg.K; ph < 2*kp; ph += cfg.K {
			p := cfg.OwnerAt(q, ph%kp)
			if prev >= 0 {
				want := (prev - 1 + cfg.P) % cfg.P
				if p != want {
					t.Fatalf("portion %d: owner %d -> %d, want %d", q, prev, p, want)
				}
			}
			prev = p
		}
	}
}

func TestDistributions(t *testing.T) {
	for _, d := range []Dist{Block, Cyclic} {
		cfg := Config{P: 3, K: 2, NumIters: 10, NumElems: 6, Dist: d}
		total := 0
		for p := 0; p < cfg.P; p++ {
			n := 0
			cfg.Iters(p, func(i int) {
				if cfg.OwnerOfIter(i) != p {
					t.Fatalf("%v: OwnerOfIter(%d) != %d", d, i, p)
				}
				n++
			})
			if n != cfg.IterCount(p) {
				t.Fatalf("%v: proc %d visited %d, IterCount %d", d, p, n, cfg.IterCount(p))
			}
			total += n
		}
		if total != cfg.NumIters {
			t.Fatalf("%v: %d total iterations", d, total)
		}
	}
}

func TestBlockOwnerOfIterMatchesRange(t *testing.T) {
	for _, n := range []int{1, 7, 10, 100, 101} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			cfg := Config{P: p, K: 1, NumIters: n, NumElems: 4, Dist: Block}
			for proc := 0; proc < p; proc++ {
				lo, hi := cfg.IterRange(proc)
				for i := lo; i < hi; i++ {
					if got := cfg.OwnerOfIter(i); got != proc {
						t.Fatalf("P=%d N=%d: OwnerOfIter(%d)=%d want %d", p, n, i, got, proc)
					}
				}
			}
		}
	}
}

// TestPaperFigure3Structure checks every structural fact the paper states
// about its worked example: 8 nodes, 20 edges, 2 processors, k = 2 → 4
// phases per processor, 2 nodes per portion, the remote buffer starting at
// location 8, and a deferred reference landing in a buffer slot with a copy
// loop in the future owning phase. (The paper does not print its mesh's
// edge list, so the exact phase counts 3/3/3/1 are not reproducible; the
// structure is.)
func TestPaperFigure3Structure(t *testing.T) {
	cfg := Config{P: 2, K: 2, NumIters: 20, NumElems: 8, Dist: Block}
	if cfg.NumPhases() != 4 {
		t.Fatalf("phases = %d, want 4", cfg.NumPhases())
	}
	if cfg.PortionSize() != 2 {
		t.Fatalf("portion size = %d, want 2", cfg.PortionSize())
	}
	// An edge like the paper's 7th: one endpoint owned in this proc's phase
	// 0, the other in a future phase.
	ind1 := make([]int32, 20)
	ind2 := make([]int32, 20)
	rng := rand.New(rand.NewSource(7))
	for i := range ind1 {
		ind1[i] = int32(rng.Intn(8))
		ind2[i] = int32(rng.Intn(8))
	}
	// Edge 7 references an element of P0's phase-0 portion and one of its
	// phase-2 portion.
	lo0, _ := cfg.PortionBounds(cfg.PortionAt(0, 0))
	lo2, _ := cfg.PortionBounds(cfg.PortionAt(0, 2))
	ind1[7], ind2[7] = int32(lo0), int32(lo2)

	s, err := Light(cfg, 0, ind1, ind2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(ind1, ind2); err != nil {
		t.Fatal(err)
	}
	if got := s.NumIters(); got != 10 {
		t.Fatalf("P0 iterations = %d, want 10 (half of 20 edges)", got)
	}
	// Find edge 7 in phase 0 and confirm its second reference was
	// redirected to a remote-buffer slot >= 8.
	p0 := &s.Phases[0]
	found := false
	for j, it := range p0.Iters {
		if it == 7 {
			found = true
			if p0.Ind[0][j] != int32(lo0) {
				t.Fatalf("owned reference rewritten to %d", p0.Ind[0][j])
			}
			if p0.Ind[1][j] < 8 {
				t.Fatalf("deferred reference %d, want buffer slot >= 8", p0.Ind[1][j])
			}
		}
	}
	if !found {
		t.Fatal("edge 7 not assigned to phase 0")
	}
	// The future phase (2) must copy that buffer slot into the element.
	var copied bool
	for _, cp := range s.Phases[2].Copies {
		if cp.Elem == int32(lo2) {
			copied = true
		}
	}
	if !copied {
		t.Fatal("phase 2 has no copy loop entry for the deferred element")
	}
}

func TestLightMatchesSequentialSmall(t *testing.T) {
	cfg := Config{P: 2, K: 2, NumIters: 20, NumElems: 8, Dist: Block}
	rng := rand.New(rand.NewSource(1))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	contrib := func(i, r int) float64 { return float64(i*3+r) * 0.25 }
	got := emulate(t, cfg, ind, contrib)
	want := sequential(cfg, ind, contrib)
	if !almostEqual(got, want) {
		t.Fatalf("phase execution diverged\n got %v\nwant %v", got, want)
	}
}

func TestLightMatchesSequentialSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, k := range []int{1, 2, 4} {
			for _, d := range []Dist{Block, Cyclic} {
				for _, refs := range []int{1, 2, 3} {
					cfg := Config{P: p, K: k, NumIters: 157, NumElems: 61, Dist: d}
					ind := randInd(rng, cfg.NumIters, cfg.NumElems, refs)
					contrib := func(i, r int) float64 { return float64(i+1) / float64(r+2) }
					got := emulate(t, cfg, ind, contrib)
					want := sequential(cfg, ind, contrib)
					if !almostEqual(got, want) {
						t.Fatalf("P=%d k=%d %v refs=%d: diverged", p, k, d, refs)
					}
				}
			}
		}
	}
}

// Property: for random shapes and indirections the phase execution always
// matches the sequential reduction and all schedules pass Check.
func TestLightEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, pRaw, kRaw, nRaw, eRaw uint8, cyclic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			P:        1 + int(pRaw)%8,
			K:        1 + int(kRaw)%4,
			NumIters: int(nRaw),
			NumElems: 1 + int(eRaw),
		}
		if cyclic {
			cfg.Dist = Cyclic
		}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
		contrib := func(i, r int) float64 { return float64((i + 1) * (r + 1)) }
		got := emulateQuiet(cfg, ind, contrib)
		if got == nil {
			return false
		}
		return almostEqual(got, sequential(cfg, ind, contrib))
	}
	if err := quick.Check(prop, quickseed.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// emulateQuiet is emulate without the testing.T plumbing, for quick.Check.
func emulateQuiet(cfg Config, ind [][]int32, contrib func(i, r int) float64) []float64 {
	x := make([]float64, cfg.NumElems)
	scheds := make([]*Schedule, cfg.P)
	bufs := make([][]float64, cfg.P)
	for p := 0; p < cfg.P; p++ {
		s, err := Light(cfg, p, ind...)
		if err != nil || s.Check(ind...) != nil {
			return nil
		}
		scheds[p] = s
		bufs[p] = make([]float64, s.BufLen)
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

func TestSingleReferenceNeedsNoBuffers(t *testing.T) {
	cfg := Config{P: 4, K: 2, NumIters: 200, NumElems: 64, Dist: Cyclic}
	rng := rand.New(rand.NewSource(3))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 1)
	for p := 0; p < cfg.P; p++ {
		s, err := Light(cfg, p, ind...)
		if err != nil {
			t.Fatal(err)
		}
		if s.BufLen != 0 || s.NumCopies() != 0 {
			t.Fatalf("proc %d: single-reference loop allocated %d buffers, %d copies", p, s.BufLen, s.NumCopies())
		}
	}
}

func TestBufferSharing(t *testing.T) {
	// Two iterations deferring to the same element must share one slot.
	cfg := Config{P: 2, K: 2, NumIters: 4, NumElems: 8, Dist: Block}
	// P0 owns iterations 0,1. Element 0 is P0's phase 0; element 6 is a
	// future phase. Both iterations reference (0, 6).
	ind1 := []int32{0, 0, 0, 0}
	ind2 := []int32{6, 6, 0, 0}
	s, err := Light(cfg, 0, ind1, ind2)
	if err != nil {
		t.Fatal(err)
	}
	if s.BufLen != 1 {
		t.Fatalf("BufLen = %d, want 1 (shared slot)", s.BufLen)
	}
	if s.NumCopies() != 1 {
		t.Fatalf("copies = %d, want 1", s.NumCopies())
	}
}

func TestLightErrors(t *testing.T) {
	ind := [][]int32{{0, 1}, {1, 0}}
	cases := []struct {
		name string
		cfg  Config
		proc int
		ind  [][]int32
	}{
		{"badP", Config{P: 0, K: 1, NumIters: 2, NumElems: 2}, 0, ind},
		{"badK", Config{P: 1, K: 0, NumIters: 2, NumElems: 2}, 0, ind},
		{"badElems", Config{P: 1, K: 1, NumIters: 2, NumElems: 0}, 0, ind},
		{"badProc", Config{P: 2, K: 1, NumIters: 2, NumElems: 2}, 5, ind},
		{"noInd", Config{P: 1, K: 1, NumIters: 2, NumElems: 2}, 0, nil},
		{"shortInd", Config{P: 1, K: 1, NumIters: 3, NumElems: 2}, 0, ind},
		{"outOfRange", Config{P: 1, K: 1, NumIters: 2, NumElems: 1}, 0, ind},
	}
	for _, c := range cases {
		if _, err := Light(c.cfg, c.proc, c.ind...); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestEmptyLoop(t *testing.T) {
	cfg := Config{P: 2, K: 2, NumIters: 0, NumElems: 4, Dist: Block}
	s, err := Light(cfg, 0, []int32{}, []int32{})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumIters() != 0 || s.BufLen != 0 {
		t.Fatal("empty loop produced work")
	}
	if err := s.Check([]int32{}, []int32{}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPhaseItersImbalance(t *testing.T) {
	// All iterations referencing the same element pile into one phase.
	cfg := Config{P: 2, K: 2, NumIters: 40, NumElems: 8, Dist: Block}
	ind := make([]int32, 40) // all zeros -> element 0
	s, err := Light(cfg, 0, ind)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxPhaseIters() != 20 {
		t.Fatalf("MaxPhaseIters = %d, want 20", s.MaxPhaseIters())
	}
}

func TestPhaseHistogramAndImbalance(t *testing.T) {
	cfg := Config{P: 2, K: 2, NumIters: 40, NumElems: 8, Dist: Block}
	ind := make([]int32, 40) // all element 0: everything in one phase
	s, err := Light(cfg, 0, ind)
	if err != nil {
		t.Fatal(err)
	}
	h := s.PhaseHistogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != s.NumIters() {
		t.Fatalf("histogram sums to %d, schedule has %d", total, s.NumIters())
	}
	// All 20 local iterations in one of 4 phases: imbalance = 20/(20/4) = 4.
	if got := s.Imbalance(); got != 4 {
		t.Fatalf("imbalance = %v, want 4", got)
	}
	// An empty schedule reports neutral imbalance.
	empty, err := Light(Config{P: 2, K: 1, NumIters: 0, NumElems: 4}, 0, []int32{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Imbalance() != 1 {
		t.Fatalf("empty imbalance = %v", empty.Imbalance())
	}
}
