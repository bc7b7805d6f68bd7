package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mhafs/internal/server"
)

func TestDiffStats(t *testing.T) {
	before := []server.Stats{{Name: "h0", Reads: 1, ReadBytes: 100, BusyTime: 1.0}}
	after := []server.Stats{{Name: "h0", Reads: 4, ReadBytes: 250, BusyTime: 3.5}}
	d := DiffStats(before, after)
	if d[0].Reads != 3 || d[0].ReadBytes != 150 || math.Abs(d[0].BusyTime-2.5) > 1e-12 {
		t.Errorf("diff = %+v", d[0])
	}
}

func TestDiffStatsPanics(t *testing.T) {
	mustPanic(t, "length", func() { DiffStats(nil, []server.Stats{{}}) })
	mustPanic(t, "names", func() {
		DiffStats([]server.Stats{{Name: "a"}}, []server.Stats{{Name: "b"}})
	})
}

func TestDiffStatsEdges(t *testing.T) {
	// Two empty snapshots are trivially parallel.
	if d := DiffStats(nil, nil); len(d) != 0 {
		t.Errorf("empty diff = %v", d)
	}
	// Same servers in a different order is not parallel — a diff across
	// reordered snapshots would silently misattribute load.
	mustPanic(t, "reordered", func() {
		DiffStats(
			[]server.Stats{{Name: "a"}, {Name: "b"}},
			[]server.Stats{{Name: "b"}, {Name: "a"}},
		)
	})
	// An interval with no activity diffs to all-zero rows.
	snap := []server.Stats{{Name: "h0", BusyTime: 1.5}, {Name: "h1", BusyTime: 2.5}}
	d := DiffStats(snap, snap)
	for i, s := range d {
		if s.Reads != 0 || s.WriteBytes != 0 || s.BusyTime != 0 {
			t.Errorf("idle interval row %d = %+v", i, s)
		}
	}
}

func TestBusyTimes(t *testing.T) {
	got := BusyTimes([]server.Stats{{BusyTime: 1}, {BusyTime: 2}})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("BusyTimes = %v", got)
	}
}

func TestLoadImbalance(t *testing.T) {
	if got := LoadImbalance([]float64{2, 7, 4}); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("LoadImbalance = %v, want 3.5", got)
	}
	if got := LoadImbalance([]float64{5}); got != 0 {
		t.Errorf("single server imbalance = %v", got)
	}
	if got := LoadImbalance([]float64{0, 0}); got != 0 {
		t.Errorf("idle imbalance = %v", got)
	}
	if got := LoadImbalance([]float64{3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("even imbalance = %v, want 1", got)
	}
}

func TestMBps(t *testing.T) {
	if got := MBps(100<<20, 2); math.Abs(got-50) > 1e-9 {
		t.Errorf("MBps = %v", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig. X", "scheme", "bw")
	tb.AddRow("DEF", 12.345)
	tb.AddRow("MHA", 99)
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. X", "scheme", "DEF", "12.35", "MHA", "99"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"u`)
	var buf bytes.Buffer
	if err := tb.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""u"`) {
		t.Errorf("CSV escaping wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: want panic", name)
		}
	}()
	fn()
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 0.3); math.Abs(got-3) > 1e-12 {
		t.Errorf("interpolated = %v, want 3", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty input should return 0")
	}
	if got := Percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single value = %v", got)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
	mustPanic(t, "q>1", func() { Percentile(vals, 1.5) })
	mustPanic(t, "q<0", func() { Percentile(vals, -0.1) })
}

func TestLatencySummarize(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s = Summarize(vals)
	if s.Count != 100 || math.Abs(s.Mean-50.5) > 1e-12 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.P50-50.5) > 1e-9 || s.P99 < 98 || s.P99 > 100 || s.P95 < 94 {
		t.Errorf("percentiles = %+v", s)
	}
}
