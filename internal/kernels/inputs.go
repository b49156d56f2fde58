package kernels

import (
	"container/list"
	"sync"
)

// InputCacheBytes bounds the process-wide input cache. It holds one class
// B mvm instance (about 220 MB) or hundreds of the small classes a
// serving mix repeats; an instance larger than the budget is built and
// returned but not kept.
const InputCacheBytes = 256 << 20

// InputStats is the input cache's traffic and occupancy.
type InputStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// inputKey names one built dataset. An instance is fully determined by
// it, so a cached entry never goes stale.
type inputKey struct {
	workload, class string
	seed            int64
}

type inputEntry struct {
	key inputKey
	in  *Instance
}

// inputCache is a least-recently-used cache of built instances, evicted
// against a byte budget. Two concurrent misses on one key may both build;
// the first insert wins and the duplicate is dropped, which is harmless
// because entries are determined by their key.
type inputCache struct {
	budget int64

	mu     sync.Mutex
	lru    *list.List // of *inputEntry, most recent first
	byKey  map[inputKey]*list.Element
	bytes  int64
	hits   int64
	misses int64
}

func newInputCache(budget int64) *inputCache {
	return &inputCache{budget: budget, lru: list.New(), byKey: make(map[inputKey]*list.Element)}
}

var inputs = newInputCache(InputCacheBytes)

// Input returns the instance of (name, class, seed) from the process-wide
// input cache, building it on a miss; hit reports whether it was cached.
// Callers share the instance and must treat it as immutable.
func Input(name, class string, seed int64) (in *Instance, hit bool, err error) {
	c, err := CanonicalClass(name, class)
	if err != nil {
		return nil, false, err
	}
	return inputs.get(inputKey{name, c, seed}, func() (*Instance, error) { return Build(name, c, seed) })
}

// InputCacheStats snapshots the process-wide input cache.
func InputCacheStats() InputStats { return inputs.stats() }

func (c *inputCache) get(k inputKey, build func() (*Instance, error)) (*Instance, bool, error) {
	c.mu.Lock()
	if e, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(e)
		c.hits++
		c.mu.Unlock()
		return e.Value.(*inputEntry).in, true, nil
	}
	c.misses++
	c.mu.Unlock()

	in, err := build()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*inputEntry).in, false, nil
	}
	if in.Bytes > c.budget {
		return in, false, nil
	}
	c.byKey[k] = c.lru.PushFront(&inputEntry{key: k, in: in})
	c.bytes += in.Bytes
	for c.bytes > c.budget {
		old := c.lru.Back().Value.(*inputEntry)
		c.lru.Remove(c.lru.Back())
		delete(c.byKey, old.key)
		c.bytes -= old.in.Bytes
	}
	return in, false, nil
}

func (c *inputCache) stats() InputStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return InputStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len(), Bytes: c.bytes}
}
