package service

import (
	"sort"
	"sync"
	"time"

	"irred/internal/kernels"
)

// latWindow is the number of recent job latencies retained for the
// percentile estimates — a fixed ring so /metrics stays O(1) memory under
// any traffic volume.
const latWindow = 512

// metrics aggregates service counters. State gauges are maintained on
// transitions (submit, start, finish), latencies in a ring of the last
// latWindow completed jobs.
type metrics struct {
	mu          sync.Mutex
	submitted   int64
	shed        int64
	byState     map[State]int64
	workersBusy int64
	lat         [latWindow]float64 // total latency (submit -> finish), ms
	latN        int                // total recorded (ring occupancy = min(latN, latWindow))
}

func newMetrics() *metrics {
	return &metrics{byState: make(map[State]int64)}
}

func (m *metrics) submittedJob() {
	m.mu.Lock()
	m.submitted++
	m.byState[StateQueued]++
	m.mu.Unlock()
}

func (m *metrics) shedJob() {
	m.mu.Lock()
	m.shed++
	m.mu.Unlock()
}

func (m *metrics) startJob() {
	m.mu.Lock()
	m.byState[StateQueued]--
	m.byState[StateRunning]++
	m.workersBusy++
	m.mu.Unlock()
}

// finishJob moves a job from `from` to its terminal state and records its
// total latency.
func (m *metrics) finishJob(from, to State, total time.Duration) {
	m.mu.Lock()
	m.byState[from]--
	if from == StateRunning {
		m.workersBusy--
	}
	m.byState[to]++
	m.lat[m.latN%latWindow] = float64(total) / float64(time.Millisecond)
	m.latN++
	m.mu.Unlock()
}

// LatencySummary reports percentile estimates over the recent window.
type LatencySummary struct {
	Count int64   `json:"count"` // jobs completed since start
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
}

// Snapshot is the /metrics payload: expvar-style JSON counters.
type Snapshot struct {
	UptimeSec float64          `json:"uptime_sec"`
	Jobs      map[string]int64 `json:"jobs"` // by state, plus submitted/shed totals
	Cache     CacheStats       `json:"cache"`
	// CacheHitsTotal / CacheMissesTotal mirror Cache.Hits / Cache.Misses at
	// the top level so flat scrapers (expvar consumers, the sweep harness's
	// delta accounting) read the cumulative schedule-cache traffic without
	// descending into the nested block.
	CacheHitsTotal   int64   `json:"cache_hits_total"`
	CacheMissesTotal int64   `json:"cache_misses_total"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	QueueDepth       int     `json:"queue_depth"`
	// QueuePeak is the admission queue's high-water mark since start;
	// QueueEnqueued counts every submission the queue accepted. Together
	// with Jobs["shed"] they describe how close the pool runs to capacity.
	QueuePeak     int            `json:"queue_peak"`
	QueueEnqueued int64          `json:"queue_enqueued"`
	Workers       int            `json:"workers"`
	WorkersBusy   int64          `json:"workers_busy"`
	Latency       LatencySummary `json:"latency"`
	// Sessions is the streaming-session store: resident sessions, deltas
	// applied, and the incremental-vs-full re-inspection split.
	Sessions SessionMetrics `json:"sessions"`
	// Inputs is the process-wide cache of named-kernel datasets: a hit
	// serves a job's input without regenerating it.
	Inputs kernels.InputStats `json:"inputs"`
}

// snapshot assembles the jobs map and latency percentiles.
func (m *metrics) snapshot() (jobs map[string]int64, busy int64, lat LatencySummary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs = map[string]int64{
		"submitted": m.submitted,
		"shed":      m.shed,
	}
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		jobs[string(st)] = m.byState[st]
	}
	n := m.latN
	if n > latWindow {
		n = latWindow
	}
	lat.Count = int64(m.latN)
	if n > 0 {
		window := make([]float64, n)
		copy(window, m.lat[:n])
		sort.Float64s(window)
		lat.P50MS = percentile(window, 0.50)
		lat.P95MS = percentile(window, 0.95)
	}
	return jobs, m.workersBusy, lat
}

// percentile reads the q-quantile from a sorted sample (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
