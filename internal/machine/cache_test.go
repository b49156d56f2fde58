package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestCacheColdMiss(t *testing.T) {
	c := NewCache(1024, 32, 2)
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("repeat access missed")
	}
	if !c.Access(31) {
		t.Fatal("same-line access missed")
	}
	if c.Access(32) {
		t.Fatal("next-line access hit")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, one set of interest: lines mapping to set 0 are multiples of
	// 32*sets. size=1024,line=32,assoc=2 -> sets=16.
	c := NewCache(1024, 32, 2)
	stride := uint64(32 * 16)
	c.Access(0 * stride)
	c.Access(1 * stride)
	c.Access(2 * stride) // evicts line 0 (LRU)
	if c.Access(0 * stride) {
		t.Fatal("evicted line hit")
	}
	// Now set holds {0,2}; 1 was evicted when 0 was refetched.
	if !c.Access(2 * stride) {
		t.Fatal("resident line missed")
	}
}

func TestCacheRecencyUpdate(t *testing.T) {
	c := NewCache(1024, 32, 2)
	stride := uint64(32 * 16)
	c.Access(0 * stride)
	c.Access(1 * stride)
	c.Access(0 * stride) // touch 0: now 1 is LRU
	c.Access(2 * stride) // evicts 1
	if !c.Access(0 * stride) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(1 * stride) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheSequentialStream(t *testing.T) {
	c := NewCache(16<<10, 32, 4)
	// Streaming 8-byte words: one miss per 4 words.
	for i := 0; i < 4096; i++ {
		c.Access(uint64(i * 8))
	}
	if c.Misses != 1024 {
		t.Fatalf("misses = %d, want 1024", c.Misses)
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(16<<10, 32, 4)
	// 8 KB working set, swept twice: second sweep must be all hits.
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			c.ResetCounters()
		}
		for i := 0; i < 1024; i++ {
			c.Access(uint64(i * 8))
		}
	}
	if c.Misses != 0 {
		t.Fatalf("warm sweep misses = %d, want 0", c.Misses)
	}
}

func TestCacheCapacityMisses(t *testing.T) {
	c := NewCache(16<<10, 32, 4)
	// 64 KB working set swept repeatedly with LRU: every access in a
	// cyclic sweep larger than capacity misses at line granularity.
	words := (64 << 10) / 8
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			c.ResetCounters()
		}
		for i := 0; i < words; i++ {
			c.Access(uint64(i * 8))
		}
	}
	wantMisses := uint64(words / 4) // one miss per 32-byte line
	if c.Misses != wantMisses {
		t.Fatalf("misses = %d, want %d", c.Misses, wantMisses)
	}
}

func TestAccessRange(t *testing.T) {
	c := NewCache(1024, 32, 2)
	if got := c.AccessRange(0, 64); got != 2 {
		t.Fatalf("cold 64B range misses = %d, want 2", got)
	}
	if got := c.AccessRange(0, 64); got != 0 {
		t.Fatalf("warm range misses = %d, want 0", got)
	}
	// A range straddling a line boundary touches both lines.
	c.Reset()
	if got := c.AccessRange(30, 4); got != 2 {
		t.Fatalf("straddling range misses = %d, want 2", got)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(1024, 32, 2)
	c.Access(0)
	c.Reset()
	if c.Access(0) {
		t.Fatal("hit after Reset")
	}
	if c.Accesses() != 1 {
		t.Fatalf("accesses = %d, want 1", c.Accesses())
	}
}

func TestCacheBadParamsPanic(t *testing.T) {
	for _, args := range [][3]int{{0, 32, 2}, {1024, 0, 2}, {1024, 32, 0}, {1000, 32, 2}, {64, 32, 4}} {
		args := args
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%v) did not panic", args)
				}
			}()
			NewCache(args[0], args[1], args[2])
		}()
	}
}

// Property: hits+misses always equals the number of accesses, and an access
// immediately repeated always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		c := NewCache(4096, 32, 2)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			a := uint64(r.Intn(1 << 16))
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return c.Accesses() == uint64(n)*2
	}
	if err := quick.Check(prop, quickseed.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property: a direct-mapped cache and a fully-associative cache agree on a
// stream that fits entirely in both (compulsory misses only).
func TestCacheCompulsoryProperty(t *testing.T) {
	prop := func(lines []uint8) bool {
		dm := NewCache(8192, 32, 1)
		fa := NewCache(8192, 32, 256)
		seen := map[uint64]bool{}
		want := uint64(0)
		for _, l := range lines {
			a := uint64(l) * 32
			if !seen[a] {
				seen[a] = true
				want++
			}
			dm.Access(a)
			fa.Access(a)
		}
		// 256 distinct lines at most; both caches hold 256 lines.
		return dm.Misses == want && fa.Misses == want
	}
	if err := quick.Check(prop, quickseed.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelMem(t *testing.T) {
	m := MANNA()
	if got := m.Mem(100, 10); got != 100*m.LoadHit+10*m.MissExtra {
		t.Fatalf("Mem = %d", got)
	}
}

func TestCostModelSeconds(t *testing.T) {
	m := MANNA()
	if got := m.Seconds(50e6); got != 1.0 {
		t.Fatalf("Seconds(50e6) = %v, want 1", got)
	}
}

func TestNetworkXmit(t *testing.T) {
	n := MANNANet()
	if got := n.XmitCycles(1000); got != n.SendOverhead+1000 {
		t.Fatalf("XmitCycles = %d", got)
	}
	if n.XmitCycles(0) != n.SendOverhead {
		t.Fatal("zero-byte message should cost only the overhead")
	}
}

func TestModernPreset(t *testing.T) {
	m := Modern()
	if m.ClockHz <= MANNA().ClockHz {
		t.Fatal("modern clock not faster than MANNA")
	}
	if m.CacheSize <= MANNA().CacheSize {
		t.Fatal("modern cache not larger")
	}
	n := ModernNet()
	if n.Latency <= MANNANet().Latency {
		t.Fatal("modern latency (in cycles) should exceed MANNA's: compute sped up more than the wire")
	}
	// The presets must build valid caches.
	m.NewCache().Access(0)
}
