package rts

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/inspector"
	"irred/internal/quickseed"
)

func TestDistributedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	contrib := func(i, r, c int) float64 { return float64(i+1)*1.5 + float64(r*10+c) }
	for _, p := range []int{1, 2, 4, 5} {
		for _, k := range []int{1, 2, 3} {
			for _, comp := range []int{1, 3} {
				l := randLoop(rng, p, k, 400, 90, 2, inspector.Cyclic, comp)
				d, err := NewDistributed(l)
				if err != nil {
					t.Fatal(err)
				}
				d.Contribs = func(_, i int, out []float64) {
					for r := 0; r < len(l.Ind); r++ {
						for c := 0; c < comp; c++ {
							out[r*comp+c] = contrib(i, r, c)
						}
					}
				}
				got, err := d.Run(1)
				if err != nil {
					t.Fatal(err)
				}
				if !near(got, seqReduce(l, contrib), 1e-9) {
					t.Fatalf("P=%d k=%d comp=%d: distributed diverged", p, k, comp)
				}
			}
		}
	}
}

func TestDistributedAgreesWithShared(t *testing.T) {
	// Shared-memory Native and message-passing Distributed must agree on
	// multi-sweep accumulation (identical schedules, identical order of
	// magnitude of float error).
	rng := rand.New(rand.NewSource(42))
	l := randLoop(rng, 4, 2, 300, 64, 2, inspector.Block, 1)
	mk := func() ContribFunc {
		return func(_, i int, out []float64) { out[0], out[1] = float64(i), 1 }
	}
	nat, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	nat.Contribs = mk()
	if err := nat.Run(3); err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(l)
	if err != nil {
		t.Fatal(err)
	}
	d.Contribs = mk()
	got, err := d.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if !near(got, nat.X, 1e-9) {
		t.Fatal("shared and message-passing engines disagree")
	}
}

func TestDistributedRejectsGather(t *testing.T) {
	l := &Loop{
		Cfg:  inspector.Config{P: 2, K: 1, NumIters: 4, NumElems: 4},
		Mode: Gather,
		Ind:  [][]int32{{0, 1, 2, 3}},
	}
	if _, err := NewDistributed(l); err == nil {
		t.Fatal("gather loop accepted")
	}
}

func TestDistributedNeedsContribs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := randLoop(rng, 2, 1, 10, 8, 1, inspector.Block, 1)
	d, err := NewDistributed(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(1); err == nil {
		t.Fatal("run without Contribs accepted")
	}
}

// Property: the message-passing engine matches the sequential reduction
// for random shapes — no hidden reliance on shared memory.
func TestDistributedEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, pRaw, kRaw uint8, cyclic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + int(pRaw)%5
		k := 1 + int(kRaw)%3
		dist := inspector.Block
		if cyclic {
			dist = inspector.Cyclic
		}
		l := randLoop(rng, p, k, 150, 37, 2, dist, 1)
		d, err := NewDistributed(l)
		if err != nil {
			return false
		}
		d.Contribs = func(_, i int, out []float64) { out[0], out[1] = float64(i), float64(3*i) }
		got, err := d.Run(1)
		if err != nil {
			return false
		}
		want := seqReduce(l, func(i, r, c int) float64 { return float64((2*r + 1) * i) })
		return near(got, want, 1e-9)
	}
	if err := quick.Check(prop, quickseed.Config(t, 30)); err != nil {
		t.Fatal(err)
	}
}
