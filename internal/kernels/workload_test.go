package kernels

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"irred/internal/inspector"
	"irred/internal/sparse"
)

// smallest returns each workload's smallest class, the one tests build.
func smallest(w *Workload) string { return w.Classes[0] }

func TestBuildRejectsUnknownWorkloadAndClass(t *testing.T) {
	if _, err := Build("cg", "S", 1); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unknown workload: err = %v", err)
	}
	for _, tc := range []struct{ name, class string }{
		{"mvm", "X"}, {"mvm", "2k"}, {"euler", "5k"}, {"euler", "S"}, {"moldyn", ""},
	} {
		if _, err := Build(tc.name, tc.class, 1); err == nil {
			t.Errorf("Build(%q, %q) accepted an unknown class", tc.name, tc.class)
		}
		if _, _, err := Input(tc.name, tc.class, 1); err == nil {
			t.Errorf("Input(%q, %q) accepted an unknown class", tc.name, tc.class)
		}
	}
}

func TestClassIsCaseInsensitiveAndCanonical(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"mvm", "s", "S"}, {"mvm", "B", "B"}, {"euler", "2K", "2k"}, {"moldyn", "10K", "10k"},
	} {
		got, err := CanonicalClass(tc.name, tc.in)
		if err != nil || got != tc.want {
			t.Errorf("CanonicalClass(%q, %q) = %q, %v; want %q", tc.name, tc.in, got, err, tc.want)
		}
	}
}

// TestInstanceMatchesKernelTypes: the registry's adapters run the same
// engine and oracle as the exported kernel types they wrap.
func TestInstanceMatchesKernelTypes(t *testing.T) {
	const steps = 2
	for _, w := range Workloads() {
		in, err := Build(w.Name, smallest(w), 3)
		if err != nil {
			t.Fatal(err)
		}
		if in.Bytes <= 0 || in.Desc == "" || in.Workload != w {
			t.Fatalf("%s: bytes %d, desc %q", w.Name, in.Bytes, in.Desc)
		}
		n, got, err := in.Native(in.Loop(2, 2, inspector.Block), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(steps); err != nil {
			t.Fatal(err)
		}
		var want []float64
		switch k := in.Kernel().(type) {
		case *MVM:
			n2, err := k.NewNative(2, 2, inspector.Block)
			if err != nil {
				t.Fatal(err)
			}
			if err := n2.Run(steps); err != nil {
				t.Fatal(err)
			}
			want = n2.X
		case *Euler:
			n2, q, err := k.NewNative(2, 2, inspector.Block)
			if err != nil {
				t.Fatal(err)
			}
			if err := n2.Run(steps); err != nil {
				t.Fatal(err)
			}
			want = q
		case *Moldyn:
			n2, pos, _, err := k.NewNative(2, 2, inspector.Block)
			if err != nil {
				t.Fatal(err)
			}
			if err := n2.Run(steps); err != nil {
				t.Fatal(err)
			}
			want = pos
		default:
			t.Fatalf("%s: kernel is %T", w.Name, k)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: instance result differs from the kernel type's", w.Name)
		}
		if diff := maxRelDiff(got, in.Sequential(steps)); diff > 1e-9 {
			t.Fatalf("%s: native vs oracle max rel diff %.2e", w.Name, diff)
		}
	}
}

// fake returns a builder of a bare instance of the given size, counting
// its calls.
func fake(size int64, calls *int) func() (*Instance, error) {
	return func() (*Instance, error) {
		*calls++
		return &Instance{Bytes: size}, nil
	}
}

func key(i int) inputKey { return inputKey{"w", "c", int64(i)} }

func TestInputCacheLRUAndBudget(t *testing.T) {
	c := newInputCache(100)
	calls := 0
	a, hit, _ := c.get(key(1), fake(40, &calls))
	if hit || calls != 1 {
		t.Fatalf("first get: hit %v, builds %d", hit, calls)
	}
	again, hit, _ := c.get(key(1), fake(40, &calls))
	if !hit || again != a || calls != 1 {
		t.Fatalf("second get: hit %v, same %v, builds %d", hit, again == a, calls)
	}
	c.get(key(2), fake(40, &calls))
	c.get(key(1), fake(40, &calls)) // 1 is now the most recent
	c.get(key(3), fake(40, &calls)) // 120 > 100: evicts the LRU entry, 2
	if st := c.stats(); st.Entries != 2 || st.Bytes != 80 || st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("after eviction: %+v", st)
	}
	if _, hit, _ := c.get(key(1), fake(40, &calls)); !hit {
		t.Fatal("the recently used entry was evicted")
	}
	if _, hit, _ := c.get(key(2), fake(40, &calls)); hit {
		t.Fatal("the least recently used entry survived eviction")
	}
	// Re-inserting 2 evicted 3, the LRU entry after the hit on 1.
	if _, hit, _ := c.get(key(3), fake(40, &calls)); hit {
		t.Fatal("entry 3 should have been evicted by the reinsert of 2")
	}
}

func TestInputCacheOverBudgetNotKept(t *testing.T) {
	c := newInputCache(100)
	calls := 0
	c.get(key(1), fake(60, &calls))
	big, hit, err := c.get(key(2), fake(101, &calls))
	if err != nil || hit || big == nil || big.Bytes != 101 {
		t.Fatalf("over-budget get: %v, hit %v, %+v", err, hit, big)
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != 60 {
		t.Fatalf("over-budget instance was kept or evicted others: %+v", st)
	}
	if _, hit, _ := c.get(key(2), fake(101, &calls)); hit || calls != 3 {
		t.Fatalf("over-budget instance served from cache (hit %v, builds %d)", hit, calls)
	}
}

func TestInputCacheBuildErrorNotKept(t *testing.T) {
	c := newInputCache(100)
	boom := func() (*Instance, error) { return nil, fmt.Errorf("boom") }
	if _, _, err := c.get(key(1), boom); err == nil {
		t.Fatal("build error swallowed")
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("failed build cached: %+v", st)
	}
}

// TestInputCacheConcurrentMisses: racing misses on one key all get an
// instance, and only one is kept.
func TestInputCacheConcurrentMisses(t *testing.T) {
	c := newInputCache(1 << 20)
	var wg sync.WaitGroup
	got := make([]*Instance, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, _ = c.get(key(1), func() (*Instance, error) { return &Instance{Bytes: 10}, nil })
		}(i)
	}
	wg.Wait()
	kept, hit, _ := c.get(key(1), nil)
	if !hit {
		t.Fatal("no entry kept")
	}
	for i, in := range got {
		if in == nil {
			t.Fatalf("getter %d got no instance", i)
		}
	}
	if st := c.stats(); st.Entries != 1 || st.Bytes != 10 || kept == nil {
		t.Fatalf("after racing misses: %+v", st)
	}
}

func TestInputCacheBudgetHoldsClassB(t *testing.T) {
	n, nnz := int64(sparse.ClassB.N), int64(sparse.ClassB.NNZ)
	// RowPtr, Col and Rows as int32, Val as float64.
	if b := 4*(n+1) + 2*4*nnz + 8*nnz; b > InputCacheBytes {
		t.Fatalf("class B mvm is %d bytes, budget %d", b, InputCacheBytes)
	}
}
