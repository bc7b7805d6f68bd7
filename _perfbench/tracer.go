package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one op share Op. A standalone span times a layer's public
// function on the same input as a call that is opaque from outside
// (k-means inside the MHA planner, planning and migration inside
// mhafs.System.Optimize); it runs after the op, never inside it, so it
// adds nothing to the op's own spans.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"` // -1 for a root
	Op         int     `json:"op"`     // -1 outside the timed loop (set-up)
	Name       string  `json:"name"`
	StartMS    float64 `json:"start_ms"`
	EndMS      float64 `json:"end_ms"`
	Standalone bool    `json:"standalone,omitempty"`
}

func (s span) durMS() float64 { return s.EndMS - s.StartMS }

// tracer keeps spans and per-layer counters in memory for the traced run.
// A nil *tracer is the untraced run: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	stack  []int
	// counts accumulates per-layer counters by metric name; samples
	// counts how many observations each one has.
	counts  map[string]float64
	samples map[string]int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), op: -1, counts: map[string]float64{}, samples: map[string]int{}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e6 }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartMS: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// standalone opens a root span labelled as a standalone layer probe.
func (t *tracer) standalone(name string) int {
	if t == nil {
		return 0
	}
	id := t.begin(name)
	t.spans[id].Standalone = true
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndMS = t.now()
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[id].Name))
	}
	t.stack = t.stack[:n-1]
}

// observe records one sample of a per-layer counter.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
	t.samples[name]++
}

// startOp tags the spans that follow with op i.
func (t *tracer) startOp(i int) {
	if t != nil {
		t.op = i
	}
}

// spanStats aggregates spans of one name.
type spanStats struct {
	calls   int
	totalMS float64
	selfMS  float64
}

// aggregate sums duration and self time by span name over the spans keep
// accepts. Self time is a span's duration minus the time its children
// cover; children of one parent never overlap (the client is closed-loop
// and single-threaded).
func (t *tracer) aggregate(keep func(span) bool) map[string]*spanStats {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.durMS()
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		if !keep(s) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.calls++
		st.totalMS += s.durMS()
		st.selfMS += s.durMS() - child[i]
	}
	return out
}

// meanMS is the mean duration of the named spans, 0 when none ran.
func meanMS(agg map[string]*spanStats, name string) float64 {
	if st := agg[name]; st != nil && st.calls > 0 {
		return st.totalMS / float64(st.calls)
	}
	return 0
}

// mean is the mean of a counter's samples, 0 when none were taken.
func (t *tracer) mean(name string) float64 {
	if n := t.samples[name]; n > 0 {
		return t.counts[name] / float64(n)
	}
	return 0
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
