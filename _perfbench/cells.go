package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"mhafs/internal/bench"
	"mhafs/internal/cluster"
	"mhafs/internal/layout"
	"mhafs/internal/mpiio"
	"mhafs/internal/pattern"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/replay"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// Sizes of the workloads' traces. IOR traces are shaped like Fig. 7's: 32
// ranks on a shared file of the paper's 16 GB divided by a scale, as
// bench.Config.Scale divides it. The cholTraces traces of a cholesky-plan
// cycle average out how much one seeded Cholesky trace costs to plan.
const (
	iorProcs      = 32
	cholTraces    = 16
	cholProcs     = 8
	cholPanels    = 4
	fig7FileBytes = 16 * units.GB
)

// iorTrace generates one Fig. 7-shaped IOR trace: 32 ranks on a shared
// file, phase order shuffled by seed.
func iorTrace(sizes []int64, op trace.Op, scale, seed int64) (trace.Trace, error) {
	return workload.IOR(workload.IORConfig{
		File: "ior.dat", Op: op, Sizes: sizes, Procs: []int{iorProcs},
		FileSize: fig7FileBytes / scale, Shuffle: true, Seed: seed,
	})
}

// choleskyTraces is the cholesky-plan input: small sparse-Cholesky
// traces whose request sizes are all distinct, seeded from seed.
func choleskyTraces(seed int64) ([]trace.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.Trace
	for j := 0; j < cholTraces; j++ {
		tr, err := workload.Cholesky(workload.CholeskyConfig{
			FilePrefix: "chol.mat", Procs: cholProcs, Panels: cholPanels, Seed: rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// cellWorkload runs bench.Config.RunScheme cells with no plan cache.
// Cell c is scheme c mod 4 on trace (c / 4) mod len(traces); op i runs
// cells i·perOp … (i+1)·perOp−1, and the op mix repeats every period
// ops. The traced run assembles each cell through mirrorCell.
type cellWorkload struct {
	cfg    bench.Config
	traces []trace.Trace
	perOp  int
	period int
	mha    map[int]float64 // simulated MHA bandwidth by trace index
}

func newCellWorkload(traces []trace.Trace, perOp, period int) *cellWorkload {
	return &cellWorkload{cfg: bench.Default(), traces: traces, perOp: perOp, period: period, mha: map[int]float64{}}
}

func (w *cellWorkload) cycle() int        { return w.period }
func (w *cellWorkload) startCycle() error { return nil }
func (w *cellWorkload) close() error      { return nil }

// cell returns cell c's scheme and trace index.
func (w *cellWorkload) cell(c int) (layout.Scheme, int) {
	schemes := layout.AllSchemes()
	return schemes[c%len(schemes)], (c / len(schemes)) % len(w.traces)
}

func (w *cellWorkload) run(i int, t *tracer) (probe, error) {
	// Only MHA cells return a probe, and an op of at most four
	// consecutive cells holds at most one.
	var p probe
	for c := i * w.perOp; c < (i+1)*w.perOp; c++ {
		cp, err := w.runCell(c, t)
		if err != nil {
			return nil, err
		}
		if cp != nil {
			p = cp
		}
	}
	return p, nil
}

func (w *cellWorkload) runCell(c int, t *tracer) (probe, error) {
	scheme, idx := w.cell(c)
	tr := w.traces[idx]
	var run bench.SchemeRun
	var err error
	if t == nil {
		run, err = w.cfg.RunScheme(scheme, tr)
	} else {
		run, err = mirrorCell(w.cfg, scheme, tr, t)
	}
	if err != nil {
		return nil, err
	}
	if err := checkReplay(run.Result, tr); err != nil {
		return nil, fmt.Errorf("%v cell: %w", scheme, err)
	}
	if err := run.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("%v cell: %w", scheme, err)
	}
	if scheme != layout.MHA {
		return nil, nil
	}
	w.mha[idx] = run.Result.Bandwidth()
	if t == nil {
		return nil, nil
	}
	return func() error { return probeGrouping(tr, w.cfg.Env, t) }, nil
}

func (w *cellWorkload) finish() (float64, int, error) { return meanByIndex(w.mha), len(w.mha), nil }

// meanByIndex averages per-trace values in trace order, so the result is
// a function of the traces covered only.
func meanByIndex(m map[int]float64) float64 {
	idx := make([]int, 0, len(m))
	for i := range m {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var xs []float64
	for _, i := range idx {
		xs = append(xs, m[i])
	}
	return meanOf(xs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkReplay verifies that a replay issued every record of the trace and
// moved exactly its bytes, split by direction.
func checkReplay(res replay.Result, tr trace.Trace) error {
	var rd, wr int64
	for _, r := range tr {
		if r.Op == trace.OpRead {
			rd += r.Size
		} else {
			wr += r.Size
		}
	}
	if res.Ops != len(tr) || res.ReadBytes != rd || res.WriteBytes != wr {
		return fmt.Errorf("replay moved %d ops, %d+%d bytes; trace has %d ops, %d+%d bytes",
			res.Ops, res.ReadBytes, res.WriteBytes, len(tr), rd, wr)
	}
	return nil
}

// mirrorCell assembles one bench.Config.RunScheme cell (no faults, no
// adaptive client, no telemetry, no plan cache) from the same public
// calls RunScheme makes, with a span around each layer. The benchmark's
// tests pin its replay.Result to RunScheme's.
func mirrorCell(c bench.Config, scheme layout.Scheme, tr trace.Trace, t *tracer) (bench.SchemeRun, error) {
	if err := c.Validate(); err != nil {
		return bench.SchemeRun{}, err
	}
	if c.Env.Workers == 0 {
		c.Env.Workers = c.Workers
	}
	sp := t.begin("pfs.setup")
	cl, err := pfs.New(c.Cluster)
	if err != nil {
		return bench.SchemeRun{}, err
	}
	for _, f := range tr.Files() {
		if _, err := cl.CreateDefault(f); err != nil {
			return bench.SchemeRun{}, err
		}
	}
	t.end(sp)

	planner, err := layout.NewPlanner(scheme)
	if err != nil {
		return bench.SchemeRun{}, err
	}
	sp = t.begin("layout.plan." + scheme.String())
	plan, err := planner.Plan(tr, c.Env)
	t.end(sp)
	if err != nil {
		return bench.SchemeRun{}, err
	}
	observePlan(t, plan)

	sp = t.begin("reorder.apply")
	placement, err := reorder.Apply(cl, plan, reorder.Options{})
	t.end(sp)
	if err != nil {
		return bench.SchemeRun{}, err
	}
	defer placement.Close()
	t.observe("reorder.mappings", float64(len(plan.Mappings)))
	t.observe("reorder.migrated_mb", 0) // RunScheme applies without migration

	mw := mpiio.New(cl)
	var red *reorder.Redirector
	switch scheme {
	case layout.DEF:
	case layout.MHA:
		red = reorder.NewRedirector(placement.DRT, c.RedirectLookup)
	default:
		red = reorder.NewRedirector(placement.DRT, 0)
	}
	if red != nil {
		mw.SetRedirector(red)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ev0 := cl.Eng.Fired()
	sp = t.begin("replay.run")
	res, err := replay.RunWith(mw, tr, replay.Options{Mode: c.ReplayMode})
	t.end(sp)
	if err != nil {
		return bench.SchemeRun{}, err
	}
	runtime.ReadMemStats(&ms1)
	ms := t.spans[sp].durMS()
	events := float64(cl.Eng.Fired() - ev0)
	t.observe("replay.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib)
	t.observe("sim.events", events)
	t.observe("sim.events_per_s", events/(ms/1e3))
	t.observe("server.imbalance", imbalance(res))
	if red != nil {
		t.observe("reorder.drt_lookups", float64(red.Lookups()))
	}
	return bench.SchemeRun{Scheme: scheme, Result: res, Plan: plan}, nil
}

// observePlan records the planner's search effort and region count.
func observePlan(t *tracer, plan layout.Plan) {
	t.observe("layout.rssd_tried", float64(plan.Search.Tried))
	if plan.Search.Tried > 0 {
		t.observe("layout.rssd_pruned_ratio", float64(plan.Search.Pruned)/float64(plan.Search.Tried))
	}
	t.observe("layout.regions", float64(len(plan.Regions)))
}

// imbalance is the max/min per-server busy time of a replay (Fig. 8's
// measure), over servers that did any work.
func imbalance(res replay.Result) float64 {
	lo, hi := 0.0, 0.0
	for _, s := range res.PerServer {
		if s.BusyTime <= 0 {
			continue
		}
		if lo == 0 || s.BusyTime < lo {
			lo = s.BusyTime
		}
		if s.BusyTime > hi {
			hi = s.BusyTime
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// probeGrouping times MHA's grouping stage standalone: the MHA planner
// runs pattern.Annotate and, per file, cluster.Group inside Plan, where
// no outside caller can time it, so the probe repeats those public calls
// on the same input with the planner's parameters.
func probeGrouping(tr trace.Trace, env layout.Env, t *tracer) error {
	sp := t.standalone("cluster.group")
	defer t.end(sp)
	byFile := map[string][]pattern.Annotated{}
	for _, a := range pattern.Annotate(tr, env.EpochWindow) {
		byFile[a.File] = append(byFile[a.File], a)
	}
	for _, f := range tr.Files() {
		pts := pattern.Points(byFile[f])
		k := cluster.BoundK(pts, env.MaxRegions)
		res, err := cluster.Group(pts, k, cluster.Options{MaxIters: 3, Seed: env.Seed, Workers: env.Workers})
		if err != nil {
			return err
		}
		t.observe("cluster.k", float64(res.K()))
	}
	return nil
}
