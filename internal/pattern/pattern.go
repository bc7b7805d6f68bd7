// Package pattern analyzes I/O traces for the access-pattern features the
// MHA paper clusters on: request size and request concurrency (§III-D).
//
// Request concurrency is "the number of requests that are simultaneously
// issued to the file". The tracer stamps each request with its issue time;
// requests whose time stamps fall within the same epoch (a configurable
// window, matching one I/O phase of a bulk-synchronous application) are
// considered simultaneous.
package pattern

import (
	"sort"

	"mhafs/internal/trace"
)

// DefaultEpochWindow is the time window (seconds) within which requests
// are considered simultaneous. Bulk-synchronous HPC codes issue one
// request per process at effectively the same instant; 1 ms comfortably
// captures that while separating distinct I/O phases.
const DefaultEpochWindow = 1e-3

// Annotated pairs a trace record with its derived pattern features.
type Annotated struct {
	trace.Record
	Epoch       int // index of the concurrency epoch the record belongs to
	Concurrency int // number of requests issued in the same epoch
}

// Epochs partitions the trace into concurrency epochs. Records are
// processed in time order; a record starts a new epoch when its time stamp
// is more than window seconds after the epoch's first record. The input is
// not modified.
func Epochs(t trace.Trace, window float64) [][]trace.Record {
	if len(t) == 0 {
		return nil
	}
	sorted := t.Clone()
	sorted.SortByTime()
	var out [][]trace.Record
	start := sorted[0].Time
	cur := []trace.Record{sorted[0]}
	for _, r := range sorted[1:] {
		if r.Time-start > window {
			out = append(out, cur)
			cur = nil
			start = r.Time
		}
		cur = append(cur, r)
	}
	return append(out, cur)
}

// Annotate computes the epoch and concurrency of every record. Request
// concurrency follows the paper's definition — "the number of requests
// that are simultaneously issued to the file" — so within an epoch each
// record's concurrency counts only the requests touching the same file
// (one epoch of a file-per-process application has concurrency 1 per
// file). The result preserves the original trace order. A window of 0
// treats only identical time stamps as simultaneous.
func Annotate(t trace.Trace, window float64) []Annotated {
	if len(t) == 0 {
		return nil
	}
	type key struct {
		rank   int
		file   string
		offset int64
		time   float64
	}
	epochOf := make(map[key]int, len(t))
	concOf := make(map[key]int, len(t))
	for ei, epoch := range Epochs(t, window) {
		perFile := make(map[string]int)
		for _, r := range epoch {
			perFile[r.File]++
		}
		for _, r := range epoch {
			k := key{r.Rank, r.File, r.Offset, r.Time}
			epochOf[k] = ei
			concOf[k] = perFile[r.File]
		}
	}
	out := make([]Annotated, len(t))
	for i, r := range t {
		k := key{r.Rank, r.File, r.Offset, r.Time}
		out[i] = Annotated{Record: r, Epoch: epochOf[k], Concurrency: concOf[k]}
	}
	return out
}

// Point is a request's position in the two-dimensional feature space of
// Eq. 1: x = request size, y = request concurrency.
type Point struct {
	X float64 // request size in bytes
	Y float64 // request concurrency
}

// Points extracts the feature point of every annotated record.
func Points(recs []Annotated) []Point {
	out := make([]Point, len(recs))
	for i, r := range recs {
		out[i] = Point{X: float64(r.Size), Y: float64(r.Concurrency)}
	}
	return out
}

// SizeHistogram counts records per distinct request size, sorted by size.
// Useful for inspecting heterogeneity (cf. Fig. 3).
func SizeHistogram(t trace.Trace) []SizeCount {
	counts := make(map[int64]int)
	for _, r := range t {
		counts[r.Size]++
	}
	out := make([]SizeCount, 0, len(counts))
	for s, c := range counts {
		out = append(out, SizeCount{Size: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// SizeCount is one histogram bucket.
type SizeCount struct {
	Size  int64
	Count int
}
