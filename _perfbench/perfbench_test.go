package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mhafs"
	"mhafs/internal/bench"
	"mhafs/internal/layout"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

func specNamed(t *testing.T, name string) workloadSpec {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workloadSpec{}
}

// fig7Mixes are the request-size mixes of Fig. 7's rows that the
// benchmark's IOR traces use.
var fig7Mixes = [][]int64{{16 * units.KB}, {128 * units.KB, 256 * units.KB}}

// TestMirrorMatchesRunScheme guards the traced run's cell assembly
// against drifting from bench.Config.RunScheme: every cell of one seed of
// cholesky-plan, and every scheme on Fig. 7-shaped IOR traces of both
// mixes, must give the same replay.Result and plan.
func TestMirrorMatchesRunScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every cell twice")
	}
	r, err := specNamed(t, "cholesky-plan").make(1, "")
	if err != nil {
		t.Fatal(err)
	}
	w := r.(*cellWorkload)
	traces := w.traces
	for _, sizes := range fig7Mixes {
		for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
			tr, err := iorTrace(sizes, op, 128, 1)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr)
		}
	}
	for idx, tr := range traces {
		for _, scheme := range layout.AllSchemes() {
			want, err := w.cfg.RunScheme(scheme, tr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mirrorCell(w.cfg, scheme, tr, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("trace %d (%v): mirror result %v, RunScheme %v", idx, scheme, got.Result, want.Result)
			}
			if !reflect.DeepEqual(got.Plan, want.Plan) {
				t.Errorf("trace %d (%v): mirror plan differs from RunScheme's", idx, scheme)
			}
		}
	}
}

// TestIORCellsReproduceFig7 runs the benchmark's 128+256 KB IOR traces
// through RunScheme at Fig. 7's seed (7) and scale (64) and compares the
// bandwidths with the committed figure golden.
func TestIORCellsReproduceFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("replays eight paper-scale cells")
	}
	want := goldenRows(t, "../figures_golden.txt", "128+256")
	cfg := bench.Default()
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		tr, err := iorTrace(fig7Mixes[1], op, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range layout.AllSchemes() {
			run, err := cfg.RunScheme(s, tr)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%.2f", run.Result.Bandwidth()))
		}
		if g, w := strings.Join(got, " "), want[op.String()]; g != w {
			t.Errorf("128+256 %s: got %s MB/s, golden %s", op, g, w)
		}
	}
}

// goldenRows returns the Fig. 7 bandwidths of one mix from the golden
// file, keyed by op, in the file's DEF AAL HARL MHA column order.
func goldenRows(t *testing.T, path, mix string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	inFig7 := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Fig. ") {
			inFig7 = strings.HasPrefix(line, "Fig. 7:")
			continue
		}
		if fs := strings.Fields(line); inFig7 && len(fs) == 6 && fs[0] == mix {
			out[fs[1]] = strings.Join(fs[2:], " ")
		}
	}
	if len(out) != 2 {
		t.Fatalf("%s: found %d Fig. 7 rows for %s, want read and write", path, len(out), mix)
	}
	if cols := layout.AllSchemes(); cols[0] != layout.DEF || cols[3] != layout.MHA {
		t.Fatalf("scheme order %v does not match the golden's columns", cols)
	}
	return out
}

// TestWorkloadsPassChecks runs the first ops of every workload untraced
// and traced and requires every correctness check to hold and every
// traced op to record its layer spans.
func TestWorkloadsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, spec := range workloads {
		r, err := spec.make(2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.startCycle(); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		n := min(r.cycle(), 8)
		for i := 0; i < n; i++ {
			// Each op runs twice; for plan-service the second run is a
			// same-tenant duplicate and goes through the dedupe checks.
			for _, tt := range []*tracer{nil, tr} {
				p, err := r.run(i, tt)
				if err == nil && p != nil {
					err = p()
				}
				if err != nil {
					t.Errorf("%s op %d (traced %v): %v", spec.name, i, tt != nil, err)
				}
			}
		}
		if _, _, err := r.finish(); err != nil {
			t.Errorf("%s finish: %v", spec.name, err)
		}
		if err := r.close(); err != nil {
			t.Errorf("%s close: %v", spec.name, err)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", spec.name, len(tr.stack))
		}
		if len(tr.spans) < n {
			t.Errorf("%s: %d spans for %d traced ops", spec.name, len(tr.spans), n)
		}
	}
}

// TestOutputMatchesBenchmarkJSON pins the metrics a run prints, by name
// and unit, to BENCHMARK.json: every end-to-end metric untraced, every
// per-layer metric traced.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var bj struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	check := func(mode string, r *result, want []declared) {
		if len(r.metrics) != len(want) {
			t.Errorf("%s run prints %d metrics, BENCHMARK.json declares %d", mode, len(r.metrics), len(want))
		}
		for _, d := range want {
			if m, ok := r.metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s run: metric %s = %+v, BENCHMARK.json declares unit %s", mode, d.Name, m, d.Unit)
			}
		}
		if !r.correct() {
			t.Errorf("%s run failed: %v", mode, r.firstErr)
		}
	}
	spec := specNamed(t, "facade-migrate")
	r, err := measure(spec, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	check("untraced", r, bj.EndToEnd)
	if r, err = measureTraced(spec, 1, 0.2); err != nil {
		t.Fatal(err)
	}
	check("traced", r, bj.PerLayer)
}

// TestChecksumCatchesSwappedRecords checks that facade-migrate's
// checksum sees an extent read back from the wrong record. Every record
// of one size holds the same replay payload, so only the offset stamps
// make such a swap visible.
func TestChecksumCatchesSwappedRecords(t *testing.T) {
	w, err := newFacadeMigrate(2)
	if err != nil {
		t.Fatal(err)
	}
	write := w.write[0]
	sys, err := mhafs.NewSystem(mhafs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Replay(write); err != nil {
		t.Fatal(err)
	}
	sys.SetTracing(false)
	a, b := -1, -1
	for i := range write {
		for j := i + 1; j < len(write) && a < 0; j++ {
			if write[i].Size == write[j].Size {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		t.Fatal("no two records of one size")
	}
	size := traceEnd(write)
	sums := func() (plain, swapped uint32) {
		t.Helper()
		h, err := sys.Open(facadeFile, 0)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, size)
		if _, err := h.ReadAtSync(img, 0); err != nil {
			t.Fatal(err)
		}
		perm := append([]byte(nil), img...)
		ra, rb := write[a], write[b]
		copy(perm[ra.Offset:ra.Offset+ra.Size], img[rb.Offset:rb.Offset+rb.Size])
		copy(perm[rb.Offset:rb.Offset+rb.Size], img[ra.Offset:ra.Offset+ra.Size])
		from := func(src []byte) uint32 {
			sum, err := checksum(func(buf []byte, off int64) error {
				copy(buf, src[off:])
				return nil
			}, size)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}
		return from(img), from(perm)
	}
	if plain, swapped := sums(); plain != swapped {
		t.Fatalf("unstamped records differ by content (%08x, %08x); the stamps may no longer be needed", plain, swapped)
	}
	if err := stampRecords(sys, write); err != nil {
		t.Fatal(err)
	}
	plain, swapped := sums()
	if plain == swapped {
		t.Errorf("records %d and %d swapped: checksum %08x unchanged", a, b, plain)
	}
	got, err := verify(sys, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Errorf("verify = %08x, checksum of the file image %08x", got, plain)
	}
}

// TestQuietWindows checks that window metrics come from the half of the
// windows with the least host steal.
func TestQuietWindows(t *testing.T) {
	var ls loopStats
	for i, steal := range []float64{0.3, 0, 0.2, 0.1, 0.5} {
		ls.windows = append(ls.windows, window{ops: 10, wallS: float64(i + 1), steal: steal})
	}
	var got []float64
	for _, w := range ls.quiet() {
		got = append(got, w.steal)
	}
	if want := []float64{0, 0.1, 0.2}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet windows have steal %v, want %v", got, want)
	}
	// The quiet windows last 2, 3 and 4 s.
	if got := ls.opsPerS(); got != 10.0/3 {
		t.Errorf("opsPerS = %v, want %v", got, 10.0/3)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}
