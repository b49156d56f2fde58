package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one op share Op; Parent is the
// index of the enclosing span, -1 for an op's root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil tracer records nothing, so the untraced run calls the same
// code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfNS returns, per span name, the summed self time: each span's
// duration minus the part of it that its children's intervals cover.
func (t *tracer) selfNS() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range t.spans {
		out[s.Name] += (s.EndNS - s.StartNS) - cover(s, t.spans, kids[i])
	}
	return out
}

// cover is the length of the union of the child intervals, clipped to the
// parent's interval.
func cover(parent span, all []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].StartNS, parent.StartNS), min(all[k].EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
