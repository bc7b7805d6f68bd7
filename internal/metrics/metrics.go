// Package metrics provides result aggregation and reporting helpers for
// the experiment harness: per-server load accounting (Fig. 8), bandwidth
// computation, and plain-text/CSV tables in the style of the paper's
// figures.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mhafs/internal/server"
	"mhafs/internal/units"
)

// DiffStats subtracts a baseline snapshot from a later one, yielding the
// activity of the interval. The slices must be parallel (same servers in
// the same order); mismatched snapshots indicate a programmer error (two
// different clusters) and panic.
func DiffStats(before, after []server.Stats) []server.Stats {
	if len(before) != len(after) {
		panic("metrics: stats snapshots differ in length")
	}
	out := make([]server.Stats, len(after))
	for i := range after {
		if before[i].Name != after[i].Name {
			panic("metrics: stats snapshots are not parallel")
		}
		out[i] = server.Stats{
			Name:       after[i].Name,
			Kind:       after[i].Kind,
			Reads:      after[i].Reads - before[i].Reads,
			Writes:     after[i].Writes - before[i].Writes,
			ReadBytes:  after[i].ReadBytes - before[i].ReadBytes,
			WriteBytes: after[i].WriteBytes - before[i].WriteBytes,
			BusyTime:   after[i].BusyTime - before[i].BusyTime,
		}
	}
	return out
}

// BusyTimes extracts the per-server busy times.
func BusyTimes(stats []server.Stats) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = s.BusyTime
	}
	return out
}

// LoadImbalance returns max/min over the positive entries (1.0 = perfectly
// even). It returns 0 if fewer than two servers did work.
func LoadImbalance(vals []float64) float64 {
	var min, max float64
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		if n == 0 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
		n++
	}
	if n < 2 || min == 0 {
		return 0
	}
	return max / min
}

// MBps converts bytes transferred in a span into MB/s.
func MBps(bytes int64, seconds float64) float64 {
	return units.BandwidthMBps(bytes, seconds)
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of vals using linear
// interpolation between order statistics. The input need not be sorted; a
// sorted copy is made. It returns 0 for empty input and panics for q
// outside [0, 1].
func Percentile(vals []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	if len(vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// LatencySummary condenses a latency sample.
type LatencySummary struct {
	Count                    int
	Mean, P50, P95, P99, Max float64
}

// Summarize computes a LatencySummary (seconds in, seconds out).
func Summarize(vals []float64) LatencySummary {
	s := LatencySummary{Count: len(vals)}
	if len(vals) == 0 {
		return s
	}
	var sum float64
	for _, v := range vals {
		sum += v
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	s.P50 = Percentile(vals, 0.50)
	s.P95 = Percentile(vals, 0.95)
	s.P99 = Percentile(vals, 0.99)
	return s
}

// Table is a minimal fixed-width text table, used by the benchmark
// binaries to print paper-style rows.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Data returns a copy of the stringified data rows, for machine-readable
// exports.
func (t *Table) Data() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = append([]string(nil), row...)
	}
	return out
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FprintCSV renders the table as CSV (without the title).
func (t *Table) FprintCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
