// Command perfbench is the repository's wall-clock benchmark. It runs one
// of three seeded workloads against the simulator's public functions from
// a single closed-loop client (the next op starts when the previous one
// has finished) and prints every end-to-end metric by name, unit and
// sample count, ending with one JSON line:
//
//	bash _perfbench/run.sh --workload cholesky-plan --seed 1 --seconds 30 --trace 0
//
// --trace 1 alternates untraced and traced windows of the loop and
// reports per-layer metrics from spans recorded around every layer call;
// the spans are written to .bench_build/spans. --workload all runs every
// workload in one process. --where FILE regenerates the "where time goes"
// report from traced runs of every workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// probe runs after an op in the traced run, outside the op's spans:
// standalone timings of layers the op reaches only inside another call.
type probe func() error

// runner drives one benchmark workload. Ops are numbered from 0 and repeat
// with period cycle(); the timed loop ends on a cycle boundary, so every
// run measures whole cycles of the same op mix.
type runner interface {
	cycle() int
	// startCycle runs, untimed, before ops 0, cycle(), 2·cycle(), ….
	startCycle() error
	// run executes op i. An error is a failed op: the program erred or a
	// correctness check did not hold. t is nil in the untraced run.
	run(i int, t *tracer) (probe, error)
	// finish reports the mean simulated bandwidth of the MHA layouts the
	// run produced (MB/s) and how many layouts it averages.
	finish() (float64, int, error)
	close() error
}

type workloadSpec struct {
	name, why string
	make      func(seed int64, tmp string) (runner, error)
}

var workloads = []workloadSpec{
	{"cholesky-plan", "RSSD stripe search dominates: every request size distinct, HARL and MHA plans cost more than replay",
		func(seed int64, _ string) (runner, error) {
			trs, err := choleskyTraces(seed)
			if err != nil {
				return nil, err
			}
			// One trace under every scheme per op: single-cell ops would
			// put the median between the replay-only (DEF, AAL) and the
			// planning (HARL, MHA) cells. A cycle is every trace.
			return newCellWorkload(trs, 4, len(trs)), nil
		}},
	{"plan-service", "no replay: job keying, plan cache, service loop and ledger under duplicate, hit and miss traffic",
		func(seed int64, tmp string) (runner, error) { return newPlanService(seed, tmp) }},
	{"facade-migrate", "the public mhafs workflow with bytes kept: trace collection, migration in Optimize, redirected reads",
		func(seed int64, _ string) (runner, error) { return newFacadeMigrate(seed) }},
}

// outDir, relative to the checkout root, holds the spans of traced runs
// and each run's scratch directory; run.sh builds into it too.
const outDir = ".bench_build"

// A run sets up setupReps times and reports the median as setup_s. Each
// set-up generates the inputs and runs warm-up ops until warmup has
// passed, at least one, so sub-millisecond ops warm up as well as
// half-second ones.
const (
	setupReps = 5
	warmup    = 200 * time.Millisecond
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	where := flag.String("where", "", "write the where-time-goes report to this file")
	flag.Parse()
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *where != "" {
		return writeWhere(*where, *seed, *seconds)
	}
	var run []workloadSpec
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	fmt.Println("# machine:", describeMachine(*traced == 1))
	final := jsonResult{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		var r *result
		var err error
		if *traced == 1 {
			r, err = measureTraced(w, *seed, *seconds)
		} else {
			r, err = measure(w, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.print(os.Stdout)
		final.Attempted += r.ops
		final.Failed += r.failed
		final.Correct = final.Correct && r.correct()
		for k, m := range r.metrics {
			if len(run) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type jsonResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one workload's outcome.
type result struct {
	name     string
	seed     int64
	ops      int
	failed   int
	firstErr error
	metrics  map[string]metric
	notes    []string
}

func (r *result) correct() bool { return r.failed == 0 && r.firstErr == nil }

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "# %s seed %d: %d ops, %d failed\n", r.name, r.seed, r.ops, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s %s\n", r.name, n)
	}
	if r.firstErr != nil {
		fmt.Fprintf(f, "# %s first failure: %v\n", r.name, r.firstErr)
	}
	// failed_frac is always 0 on a passing run, so it is printed here and
	// carried by the JSON line's attempted/failed, not listed as a metric.
	fmt.Fprintf(f, "%-16s %-28s %14.6g %-6s n=%d\n", r.name, "failed_frac", float64(r.failed)/float64(max(r.ops, 1)), "ratio", r.ops)
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(f, "%-16s %-28s %14.6g %-6s n=%d\n", r.name, k, m.Value, m.Unit, m.n)
	}
}

// windowS is the least wall time of a window. The timed loop is cut into
// windows of whole op cycles. Each window metric is the median of its
// values over the quiet half of the windows, those in which the host
// stole the least CPU time from the machine, so a slow spell of the host
// moves it only when the spell covers more than half of the run.
const windowS = 2.5

// window is one timed stretch of whole op cycles.
type window struct {
	ops    int
	wallS  float64 // wall time, standalone probes excluded
	cpuS   float64 // process CPU time, standalone probes excluded
	latMS  []float64
	peakMB float64 // resident-set high-water mark within the window
	steal  float64 // share of machine CPU time stolen by the host
}

// loopStats is what a timed loop measured in the windows of one kind
// (untraced or traced).
type loopStats struct {
	ops, failed int
	firstErr    error
	windows     []window
	wallS       float64 // wall time of these windows, probes included
	probeS      float64 // time spent in standalone probes (traced run)
	allocMB     float64 // heap bytes allocated, whole loop
}

// quiet returns the half of the windows, rounded up, in which the host
// stole the least CPU time, in loop order among equals.
func (l loopStats) quiet() []window {
	ws := append([]window(nil), l.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	return ws[:(len(ws)+1)/2]
}

// opsPerS is the median over quiet windows of ops per wall second.
func (l loopStats) opsPerS() float64 {
	return l.perWindow(func(w window) float64 { return float64(w.ops) / w.wallS })
}

// cpuMSPerOp is the median over quiet windows of process CPU
// milliseconds per op.
func (l loopStats) cpuMSPerOp() float64 {
	return l.perWindow(func(w window) float64 { return 1e3 * w.cpuS / float64(w.ops) })
}

// peakRSSMB is the median over quiet windows of the resident-set
// high-water mark.
func (l loopStats) peakRSSMB() float64 {
	return l.perWindow(func(w window) float64 { return w.peakMB })
}

// latency is the median over quiet windows of the q-quantile of op
// latency.
func (l loopStats) latency(q float64) float64 {
	return l.perWindow(func(w window) float64 { return quantile(w.latMS, q) })
}

// steal is the median over quiet windows of the share of machine CPU
// time the host stole.
func (l loopStats) steal() float64 {
	return l.perWindow(func(w window) float64 { return w.steal })
}

func (l loopStats) perWindow(f func(window) float64) float64 {
	var xs []float64
	for _, w := range l.quiet() {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// overhead is the tracing overhead, 1 − traced / untraced ops per second,
// as the median over pairs of an untraced window and the traced window
// that ran the same ops right after it.
func overhead(un, tr loopStats) float64 {
	var xs []float64
	for j := range min(len(un.windows), len(tr.windows)) {
		xs = append(xs, 1-un.windows[j].wallS/tr.windows[j].wallS)
	}
	return median(xs)
}

// setup builds the workload setupReps times and returns the last build
// with every set-up time.
func setup(spec workloadSpec, seed int64, tmp string, t *tracer) (runner, []float64, error) {
	var w runner
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		sp := t.begin("workload.gen")
		var err error
		w, err = spec.make(seed, tmp)
		t.end(sp)
		if err != nil {
			return nil, nil, err
		}
		warm := time.Now()
		for i := 0; i == 0 || time.Since(warm) < warmup; i++ {
			if i%w.cycle() == 0 {
				if err := w.startCycle(); err != nil {
					return nil, nil, errors.Join(err, w.close())
				}
			}
			if _, err := w.run(i, nil); err != nil {
				return nil, nil, errors.Join(fmt.Errorf("warm-up op %d: %w", i, err), w.close())
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, times, nil
}

// loop runs windows of whole op cycles until at least seconds have
// passed. With a nil tracer every window is untraced. Otherwise every
// untraced window is followed by a traced window that runs the same ops
// again, so the two kinds measure the same work under the same host
// conditions; the traced windows are returned second.
func loop(w runner, seconds float64, t *tracer) (un, tr loopStats) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	i, first := 0, 0 // next op; first op of the last untraced window
	stop := false
	for k := 0; !stop; k++ {
		if time.Since(start).Seconds() >= seconds && (t == nil || k%2 == 0) {
			break
		}
		ls, wt, end := &un, (*tracer)(nil), -1
		if t != nil && k%2 == 1 {
			ls, wt, end = &tr, t, i
			i = first
		} else {
			first = i
		}
		var win window
		var probeS, probeCPU float64
		resetPeakRSS()
		winStart, winCPU := time.Now(), cpuSeconds()
		total0, steal0 := cpuTimes()
		for {
			if i%w.cycle() == 0 {
				if win.ops > 0 && (i == end || end < 0 && time.Since(winStart).Seconds() >= windowS) {
					break
				}
				if err := w.startCycle(); err != nil {
					ls.fail(err)
					stop = true
					break
				}
			}
			wt.startOp(i)
			opStart := time.Now()
			sp := wt.begin("op")
			p, err := w.run(i, wt)
			wt.end(sp)
			win.latMS = append(win.latMS, float64(time.Since(opStart).Nanoseconds())/1e6)
			win.ops++
			if err == nil && p != nil {
				probeStart, cpu0 := time.Now(), cpuSeconds()
				err = p()
				probeS += time.Since(probeStart).Seconds()
				probeCPU += cpuSeconds() - cpu0
			}
			if err != nil {
				ls.fail(fmt.Errorf("op %d: %w", i, err))
			}
			i++
		}
		wall := time.Since(winStart).Seconds()
		win.wallS = wall - probeS
		win.cpuS = cpuSeconds() - winCPU - probeCPU
		win.peakMB = peakRSSMB()
		if total1, steal1 := cpuTimes(); total1 > total0 {
			win.steal = (steal1 - steal0) / (total1 - total0)
		}
		ls.ops += win.ops
		ls.wallS += wall
		ls.probeS += probeS
		if win.ops > 0 {
			ls.windows = append(ls.windows, win)
		}
	}
	runtime.ReadMemStats(&m1)
	un.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	tr.allocMB = un.allocMB
	return un, tr
}

func (l *loopStats) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// scratch makes the run's scratch directory.
func scratch() (string, error) {
	dir := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

// measure is the untraced run: set-up, one timed loop, end-to-end
// metrics.
func measure(spec workloadSpec, seed int64, seconds float64) (*result, error) {
	tmp, err := scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	w, setupS, err := setup(spec, seed, tmp, nil)
	if err != nil {
		return nil, err
	}
	ls, _ := loop(w, seconds, nil)
	mha, layouts, err := w.finish()
	if err != nil {
		ls.fail(fmt.Errorf("finish: %w", err))
	}
	if err := w.close(); err != nil {
		ls.fail(fmt.Errorf("close: %w", err))
	}
	r := &result{name: spec.name, seed: seed, ops: ls.ops, failed: ls.failed, firstErr: ls.firstErr, metrics: map[string]metric{}}
	r.notes = append(r.notes, fmt.Sprintf("loop %.3f s, %d op cycles of %d in %d windows; host steal %.1f%% of CPU time (median of the %d quiet windows)",
		ls.wallS, ls.ops/w.cycle(), w.cycle(), len(ls.windows), 100*ls.steal(), len(ls.quiet())))
	n := ls.ops
	r.set("ops_per_s", ls.opsPerS(), "op/s", n)
	r.set("op_p50_ms", ls.latency(0.5), "ms", n)
	r.set("op_p90_ms", ls.latency(0.9), "ms", n)
	r.set("cpu_ms_per_op", ls.cpuMSPerOp(), "ms", n)
	r.set("alloc_mb_per_op", ls.allocMB/float64(max(n, 1)), "MB", n)
	r.set("peak_rss_mb", ls.peakRSSMB(), "MB", len(ls.windows))
	r.set("setup_s", median(setupS), "s", len(setupS))
	r.set("mha_sim_mbps", mha, "MB/s", layouts)
	return r, nil
}

// perLayer lists the traced run's metrics in report order.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ms", "ms"},
	{"iosig.digest_ms", "ms"},
	{"plancache.key_ms", "ms"},
	{"plancache.served_ratio", "ratio"},
	{"plancache.computed", "count"},
	{"service.submit_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.dup_ratio", "ratio"},
	{"service.ledger_kb", "KB"},
	{"cluster.group_ms", "ms"},
	{"cluster.k", "count"},
	{"layout.plan_ms.DEF", "ms"},
	{"layout.plan_ms.AAL", "ms"},
	{"layout.plan_ms.HARL", "ms"},
	{"layout.plan_ms.MHA", "ms"},
	{"layout.rssd_tried", "count"},
	{"layout.rssd_pruned_ratio", "ratio"},
	{"layout.regions", "count"},
	{"reorder.apply_ms", "ms"},
	{"reorder.mappings", "count"},
	{"reorder.migrated_mb", "MB"},
	{"reorder.drt_lookups", "count"},
	{"replay.run_ms", "ms"},
	{"replay.alloc_mb", "MB"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"server.imbalance", "ratio"},
	{"mhafs.trace_run_ms", "ms"},
	{"mhafs.optimize_ms", "ms"},
	{"mhafs.verify_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// traced is a traced run's raw material, kept for the where-time-goes
// report.
type traced struct {
	t             *tracer
	untraced, run loopStats
}

// measureTraced runs one loop of alternating untraced and traced windows
// and reports per-layer metrics from the traced ones.
func measureTraced(spec workloadSpec, seed int64, seconds float64) (*result, error) {
	tr, err := runTraced(spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	ls := tr.run
	r := &result{name: spec.name, seed: seed, ops: ls.ops + tr.untraced.ops,
		failed: ls.failed + tr.untraced.failed, firstErr: errors.Join(tr.untraced.firstErr, ls.firstErr),
		metrics: map[string]metric{}}
	r.notes = append(r.notes, fmt.Sprintf("traced windows %.3f s (%.3f s in standalone probes), untraced windows %.3f s",
		ls.wallS, ls.probeS, tr.untraced.wallS))
	agg := tr.t.aggregate(func(span) bool { return true })
	for _, m := range perLayer {
		var v float64
		n := ls.ops
		switch {
		case m.name == "trace.overhead_frac":
			v = overhead(tr.untraced, ls)
		case strings.HasPrefix(m.name, "layout.plan_ms."):
			span := "layout.plan." + strings.TrimPrefix(m.name, "layout.plan_ms.")
			v, n = meanMS(agg, span), calls(agg, span)
		case strings.HasSuffix(m.name, "_ms"):
			span := strings.TrimSuffix(m.name, "_ms")
			v, n = meanMS(agg, span), calls(agg, span)
		default:
			v, n = tr.t.mean(m.name), tr.t.samples[m.name]
		}
		r.set(m.name, v, m.unit, n)
	}
	return r, nil
}

func calls(agg map[string]*spanStats, name string) int {
	if st := agg[name]; st != nil {
		return st.calls
	}
	return 0
}

// runTraced performs a traced run and writes its spans under outDir.
func runTraced(spec workloadSpec, seed int64, seconds float64) (*traced, error) {
	tmp, err := scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	t := newTracer()
	w, _, err := setup(spec, seed, tmp, t)
	if err != nil {
		return nil, err
	}
	un, ls := loop(w, seconds, t)
	if err := w.close(); err != nil {
		ls.fail(fmt.Errorf("close: %w", err))
	}
	path, err := t.write(filepath.Join(outDir, "spans"), fmt.Sprintf("%s-seed%d", spec.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Println("# spans:", path)
	return &traced{t: t, untraced: un, run: ls}, nil
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q traced=%v", m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPU, m.Traced)
}
