// Package bench is the experiment harness: one runner per table/figure of
// the MHA paper's evaluation (§V). Each runner builds fresh simulated
// clusters, generates the figure's workload, plans and applies every
// layout scheme, replays the trace, and reports the same rows/series the
// paper plots.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not the authors' testbed); the comparisons — which scheme
// wins, roughly by how much, and how the gap moves with the swept
// parameter — are the reproduction target. Workload volumes are scaled
// down from the paper's (16 GB files, 4096 HPIO regions) by Config.Scale
// so a full suite runs in seconds; the request sizes, mixes and process
// counts are the paper's.
package bench

import (
	"fmt"

	"mhafs/internal/adaptive"
	"mhafs/internal/fault"
	"mhafs/internal/layout"
	"mhafs/internal/mpiio"
	"mhafs/internal/parfan"
	"mhafs/internal/pfs"
	"mhafs/internal/plancache"
	"mhafs/internal/region"
	"mhafs/internal/reorder"
	"mhafs/internal/replay"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

// Config parameterizes the harness.
type Config struct {
	// Cluster is the base cluster; experiments override server counts
	// where the figure sweeps them.
	Cluster pfs.Config

	// Env is the planning environment; M and N follow the cluster.
	Env layout.Env

	// Scale divides the paper's workload volumes (file sizes, region
	// counts) to keep simulated event counts manageable. 1 reproduces the
	// paper's volumes; the default is 64.
	Scale int64

	// RedirectLookup is the client-side DRT lookup cost charged to MHA
	// (and measured by Fig. 14).
	RedirectLookup float64

	// ReplayMode paces the replaying ranks (Independent by default;
	// LockStep models bulk-synchronous barriers, Timed honors trace time
	// stamps).
	ReplayMode replay.Mode

	// Telemetry, when non-nil, is the registry every replayed scheme's
	// middleware emits into (stage spans, request/server series, DRT
	// counters). Runs accumulate — use a fresh registry per run for
	// per-run snapshots. Parallel runners never share this registry
	// across cells: each cell records into a private registry and the
	// harness merges them in cell order, so snapshots are byte-identical
	// at every worker count.
	Telemetry *telemetry.Registry

	// Workers bounds the harness fan-out: independent scheme × figure
	// cells run concurrently on a parfan pool. 0 or negative selects
	// runtime.GOMAXPROCS(0); 1 runs everything serially. Output is
	// byte-identical at every setting. The value also seeds
	// Env.Workers (planner-internal fan-out) unless Env.Workers is set
	// explicitly.
	Workers int

	// Faults, when non-empty, injects the named seeded fault scenario
	// into every replayed scheme and enables the client's resilience
	// stages (retry, degraded-mode failover). The empty string — the
	// default — runs the historical fault-free path with no resilience
	// machinery installed; scenario "none" runs the resilient pipeline
	// with an empty schedule (the no-fault baseline of the resilience
	// figure).
	Faults fault.Scenario

	// FaultSeed seeds the scenario's pseudo-random window placement;
	// 0 means seed 1.
	FaultSeed int64

	// Adaptive enables the client's straggler-aware scheduler (SASIO) on
	// every replayed scheme: per-server latency estimation plus reroute
	// and speculative re-issue of lagging writes. Off by default — the
	// historical pipelines carry no adaptive stage, so their figures are
	// byte-identical with the flag unset.
	Adaptive bool

	// AdaptivePolicy overrides the scheduler policy; the zero value means
	// adaptive.DefaultPolicy.
	AdaptivePolicy adaptive.Policy

	// PlanCache, when non-nil, memoizes planner output by content address
	// (trace digest + scheme + Env knobs). Identical planning problems —
	// the same figure workload re-planned across sweep points, worker
	// counts, or the fault and adaptive variants of a run — are computed
	// once and served from the cache thereafter, byte-identically; the
	// pointer is shared by every cell the config fans out to. Plans are
	// pure functions of the key, so figures are bit-identical with the
	// cache on, off, or pre-warmed from disk.
	PlanCache *plancache.Cache
}

// Default returns the paper's setup: 6 HServers, 2 SServers, 64 KB
// default stripes, 4 KB search step, 1/64 volume scale.
func Default() Config {
	cfg := Config{
		Cluster:        pfs.DefaultConfig(),
		Env:            layout.DefaultEnv(),
		Scale:          64,
		RedirectLookup: 1e-6,
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 {
		return fmt.Errorf("bench: scale must be positive")
	}
	if c.RedirectLookup < 0 {
		return fmt.Errorf("bench: negative redirect lookup")
	}
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Faults != "" {
		if _, err := fault.ParseScenario(string(c.Faults)); err != nil {
			return err
		}
	}
	return c.Env.Validate()
}

// withServers returns a copy with the cluster and planning environment set
// to m HServers and n SServers.
func (c Config) withServers(m, n int) Config {
	c.Cluster.HServers, c.Cluster.SServers = m, n
	c.Env.M, c.Env.N = m, n
	return c
}

// SchemeRun is the outcome of one scheme on one workload.
type SchemeRun struct {
	Scheme layout.Scheme
	Result replay.Result
	Plan   layout.Plan
}

// RunScheme executes the full pipeline for one scheme on a fresh cluster:
// plan from the trace (the profiled first run), apply the placement, then
// replay the trace as the optimized subsequent run.
func (c Config) RunScheme(scheme layout.Scheme, tr trace.Trace) (SchemeRun, error) {
	if err := c.Validate(); err != nil {
		return SchemeRun{}, err
	}
	if c.Env.Workers == 0 {
		// Planner-internal fan-out follows the harness worker count unless
		// the caller pinned it explicitly.
		c.Env.Workers = c.Workers
	}
	plan, err := c.plan(scheme, tr)
	if err != nil {
		return SchemeRun{}, err
	}
	res, err := c.replayPlan(plan, tr)
	if err != nil {
		return SchemeRun{}, err
	}
	return SchemeRun{Scheme: scheme, Result: res, Plan: plan}, nil
}

// replayPlan is the harness's one run assembly. It builds a fresh cluster
// holding the trace's files under the default layout (they exist from
// the application's first, profiled run), applies plan, wires the
// middleware — telemetry, faults, adaptive scheduling and the plan
// scheme's redirector — and replays tr as the optimized subsequent run
// in the configured replay mode. An empty plan creates no region and no
// mapping.
func (c Config) replayPlan(plan layout.Plan, tr trace.Trace) (replay.Result, error) {
	cluster, err := pfs.New(c.Cluster)
	if err != nil {
		return replay.Result{}, err
	}
	for _, f := range tr.Files() {
		if _, err := cluster.CreateDefault(f); err != nil {
			return replay.Result{}, err
		}
	}
	placement, err := reorder.Apply(cluster, plan, reorder.Options{})
	if err != nil {
		return replay.Result{}, err
	}
	defer placement.Close()

	mw := mpiio.New(cluster)
	if c.Telemetry != nil {
		// Enabled before the redirector so SetRedirector inherits the
		// registry and the DRT counters are wired too.
		mw.EnableTelemetry(c.Telemetry)
	}
	if err := enableFaults(mw, c.Faults, c.FaultSeed, 0, placement.RST); err != nil {
		return replay.Result{}, err
	}
	if c.Adaptive {
		if err := mw.EnableAdaptive(mpiio.AdaptiveOptions{
			Policy: c.AdaptivePolicy,
			RST:    placement.RST,
		}); err != nil {
			return replay.Result{}, err
		}
	}
	mw.SetRedirector(reorder.SchemeRedirector(plan.Scheme, placement.DRT, c.RedirectLookup))
	return replay.RunWith(mw, tr, replay.Options{Mode: c.ReplayMode})
}

// enableFaults injects the seeded scenario into mw's cluster and turns on
// the client's resilience stages; the empty scenario installs nothing.
// The schedule is seeded with seed+group, where seed 0 means 1; rst, when
// non-nil, receives the layouts of the failover layer's fallback files.
func enableFaults(mw *mpiio.Middleware, sc fault.Scenario, seed int64, group int, rst *region.RST) error {
	if sc == "" {
		return nil
	}
	if seed == 0 {
		seed = 1
	}
	cfg := mw.Cluster.Config()
	sched, err := sc.Build(cfg.HServers, cfg.SServers, seed+int64(group))
	if err != nil {
		return err
	}
	in, err := fault.NewInjector(mw.Cluster.Eng, sched)
	if err != nil {
		return err
	}
	return mw.EnableResilience(mpiio.ResilienceOptions{Injector: in, RST: rst})
}

// plan produces the scheme's plan through the plan cache (a nil cache
// plans directly). Search-effort counters (candidates tried / pruned,
// aggregated in layout.SearchStats) are emitted once per planner call
// whether the plan was computed or served — the stats travel inside the
// cached Plan, so every cell reports the same numbers and the merged
// totals are byte-identical with the cache off, in memory, on disk, or
// pre-warmed, at every worker count.
func (c Config) plan(scheme layout.Scheme, tr trace.Trace) (layout.Plan, error) {
	planner, err := layout.NewPlanner(scheme)
	if err != nil {
		return layout.Plan{}, err
	}
	plan, err := plancache.Wrap(planner, c.PlanCache).Plan(tr, c.Env)
	if err != nil {
		return layout.Plan{}, err
	}
	if c.Telemetry != nil {
		sl := telemetry.L("scheme", scheme.String())
		c.Telemetry.Counter("planner_search_total", sl, telemetry.L("kind", "tried")).Add(float64(plan.Search.Tried))
		c.Telemetry.Counter("planner_search_total", sl, telemetry.L("kind", "pruned")).Add(float64(plan.Search.Pruned))
	}
	return plan, nil
}

// RunAllSchemes runs every scheme on the same workload; the schemes run
// concurrently on the worker pool.
func (c Config) RunAllSchemes(tr trace.Trace) (map[layout.Scheme]SchemeRun, error) {
	return c.runSchemes(layout.AllSchemes(), tr)
}

// runSchemes runs the given schemes on the same workload, fanning them out
// over the pool. Every scheme run builds its own cluster, DRT and engine
// from scratch (RunScheme is shared-nothing), so the cells are
// independent; telemetry goes to a per-cell registry merged back in scheme
// order by parallelRows.
func (c Config) runSchemes(schemes []layout.Scheme, tr trace.Trace) (map[layout.Scheme]SchemeRun, error) {
	runs, err := parallelRows(c, len(schemes), func(cc Config, i int) (SchemeRun, error) {
		run, err := cc.RunScheme(schemes[i], tr)
		if err != nil {
			return SchemeRun{}, fmt.Errorf("bench: scheme %v: %w", schemes[i], err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[layout.Scheme]SchemeRun, len(schemes))
	for i, s := range schemes {
		out[s] = runs[i]
	}
	return out, nil
}

// parallelRows is the harness's deterministic fan-out primitive: n
// independent cells run fn concurrently on the worker pool, and the
// result slice comes back in index order regardless of scheduling.
//
// When the parent config carries a telemetry registry, every cell gets a
// private fresh registry; after all cells finish, the private registries
// are merged into the parent in cell order. The merge order — and with it
// the association order of every float addition — is therefore a function
// of the cell index only, never of goroutine scheduling, which is why
// telemetry snapshots are byte-identical at every worker count (including
// the serial path: workers == 1 takes the same per-cell-registry route).
//
// On error, every cell still runs (no short-circuit) and the
// lowest-indexed error is returned; telemetry is still merged so partial
// failures do not leave the parent registry in a scheduling-dependent
// state.
func parallelRows[T any](c Config, n int, fn func(cc Config, i int) (T, error)) ([]T, error) {
	regs := make([]*telemetry.Registry, n)
	out, err := parfan.MapErr(n, c.Workers, func(i int) (T, error) {
		cc := c
		if c.Telemetry != nil {
			cc.Telemetry = telemetry.NewRegistry()
			regs[i] = cc.Telemetry
		}
		return fn(cc, i)
	})
	if c.Telemetry != nil {
		for _, reg := range regs {
			c.Telemetry.Merge(reg) // Merge(nil) is a no-op
		}
	}
	return out, err
}

// scaled divides a paper-scale volume by the configured scale, keeping at
// least one unit.
func (c Config) scaled(v int64) int64 {
	s := v / c.Scale
	if s < 1 {
		return 1
	}
	return s
}

// scaledCount divides an iteration count, keeping at least one.
func (c Config) scaledCount(v int) int {
	s := v / int(c.Scale)
	if s < 1 {
		return 1
	}
	return s
}

// mbps formats bandwidth for tables.
func mbps(bytes int64, seconds float64) float64 {
	return units.BandwidthMBps(bytes, seconds)
}
