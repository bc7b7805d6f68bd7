// The XL simulation tier: many server groups, many concurrent apps, 10⁶+
// requests. Where the paper-figure runners reproduce §V's numbers on an
// 8-server cluster, the XL tier exercises the engine, the pooled request
// hot path and the batching stage at a scale where their throughput
// matters, and reports real (wall-clock) events per second.
//
// The tier is shared-nothing by construction: every group owns a private
// dataless cluster with its own engine, and the groups are driven to
// completion through sim.RunSharded. Everything except the wall-clock
// figures is deterministic — the XL determinism matrix pins byte-identical
// results across shard and worker counts.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"mhafs/internal/fault"
	"mhafs/internal/layout"
	"mhafs/internal/metrics"
	"mhafs/internal/mpiio"
	"mhafs/internal/pfs"
	"mhafs/internal/replay"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// XLConfig parameterizes an XL run.
type XLConfig struct {
	// Groups of HPerGroup+SPerGroup servers; each group is an independent
	// cluster with its own engine (the sharding unit).
	Groups    int
	HPerGroup int
	SPerGroup int

	// AppsPerGroup concurrent applications per group, each replaying an
	// XLApp trace of ProcsPerApp ranks against its own file.
	AppsPerGroup int
	ProcsPerApp  int

	// Requests is the total record count, divided evenly over the apps
	// (at least one per app); Sizes rotate per phase (empty means
	// DefaultXL's mix, which includes a record larger than a stripe round
	// so the batching stage has contiguous same-server extents to merge).
	Requests int
	Sizes    []int64

	// Shards and Workers drive sim.RunSharded; Shards 0 means one shard
	// per group. Results are byte-identical at every setting.
	Shards  int
	Workers int

	// Batch turns on the sub-request batching stage; BatchWindow is its
	// aggregation window in virtual seconds (0 flushes per instant).
	Batch       bool
	BatchWindow float64

	// Faults, when non-empty, runs every group under the named scenario
	// with resilience enabled; group g uses seed FaultSeed+g (FaultSeed 0
	// means 1), so outages are deterministic but not synchronized across
	// groups.
	Faults    fault.Scenario
	FaultSeed int64
}

// DefaultXL is the full XL tier: 128 servers in 16 groups, 64 apps, one
// million requests.
func DefaultXL() XLConfig {
	return XLConfig{
		Groups:       16,
		HPerGroup:    6,
		SPerGroup:    2,
		AppsPerGroup: 4,
		ProcsPerApp:  32,
		Requests:     1_000_000,
		Sizes:        []int64{64 * units.KB, 2 * units.MB},
		Batch:        true,
	}
}

// Validate checks the configuration.
func (c XLConfig) Validate() error {
	switch {
	case c.Groups <= 0:
		return fmt.Errorf("bench: xl: non-positive group count %d", c.Groups)
	case c.HPerGroup < 0 || c.SPerGroup < 0 || c.HPerGroup+c.SPerGroup == 0:
		return fmt.Errorf("bench: xl: bad group shape %dH+%dS", c.HPerGroup, c.SPerGroup)
	case c.AppsPerGroup <= 0:
		return fmt.Errorf("bench: xl: non-positive apps per group %d", c.AppsPerGroup)
	case c.ProcsPerApp <= 0:
		return fmt.Errorf("bench: xl: non-positive procs per app %d", c.ProcsPerApp)
	case c.Requests <= 0:
		return fmt.Errorf("bench: xl: non-positive request count %d", c.Requests)
	case c.BatchWindow < 0:
		return fmt.Errorf("bench: xl: negative batch window %g", c.BatchWindow)
	}
	if c.Faults != "" {
		if _, err := fault.ParseScenario(string(c.Faults)); err != nil {
			return err
		}
	}
	return nil
}

// XLGroupResult is one group's deterministic outcome.
type XLGroupResult struct {
	Ops      int
	Bytes    int64
	Makespan float64
}

// XLResult is the outcome of an XL run. All fields except the wall-clock
// pair are deterministic at every shard and worker count.
type XLResult struct {
	Groups   int
	Servers  int
	Apps     int
	Requests int // records actually replayed
	Events   uint64
	Bytes    int64
	Makespan float64 // max over groups, virtual seconds
	PerGroup []XLGroupResult

	// Wall-clock figures — real time and runtime counters, excluded from
	// the determinism matrix and from the deterministic table.
	WallSeconds  float64
	EventsPerSec float64
	// AllocsPerOp is heap allocations during the drive divided by the
	// replayed request count — approximate (GC and pool warm-up included)
	// but a useful scale check on the pooled hot path.
	AllocsPerOp float64
}

// Table renders the deterministic part of the result.
func (r XLResult) Table() *metrics.Table {
	tb := metrics.NewTable(
		fmt.Sprintf("XL tier: %d servers in %d groups, %d apps, %d requests, %d events",
			r.Servers, r.Groups, r.Apps, r.Requests, r.Events),
		"group", "ops", "bytes", "makespan(s)")
	for i, g := range r.PerGroup {
		tb.AddRow(i, g.Ops, g.Bytes, fmt.Sprintf("%.6f", g.Makespan))
	}
	tb.AddRow("total", r.Requests, r.Bytes, fmt.Sprintf("%.6f", r.Makespan))
	return tb
}

// RunXL builds the groups, starts every app's replay, drives all engines
// through sim.RunSharded, and collects the per-group results.
func RunXL(cfg XLConfig) (XLResult, error) {
	if err := cfg.Validate(); err != nil {
		return XLResult{}, err
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = DefaultXL().Sizes
	}
	perApp := cfg.Requests / (cfg.Groups * cfg.AppsPerGroup)
	if perApp < 1 {
		perApp = 1
	}
	res := XLResult{
		Groups:  cfg.Groups,
		Servers: cfg.Groups * (cfg.HPerGroup + cfg.SPerGroup),
		Apps:    cfg.Groups * cfg.AppsPerGroup,
	}
	// One RSSD search (Algorithm 2) lays out every XL file: the tier's
	// request mix is known up front, so each app file gets the
	// heterogeneity-aware <h, s> stripe pair for that mix instead of the
	// uniform default — the paper's layout applied at simulation scale.
	// Balancing per-class service times also keeps each app's rank cohort
	// completing in step, which is the adjacency the batching stage merges.
	env := layout.DefaultEnv()
	env.M, env.N = cfg.HPerGroup, cfg.SPerGroup
	var reqs []layout.Req
	for _, op := range []trace.Op{trace.OpWrite, trace.OpRead} {
		for _, s := range cfg.Sizes {
			reqs = append(reqs, layout.Req{Op: op, Size: s, Conc: cfg.ProcsPerApp, Weight: 1})
		}
	}
	lay := layout.RSSD(reqs, env).Layout

	engines := make([]*sim.Engine, cfg.Groups)
	pendings := make([]*replay.Pending, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		pcfg := pfs.DefaultConfig()
		pcfg.HServers, pcfg.SServers = cfg.HPerGroup, cfg.SPerGroup
		pcfg.Dataless = true
		cluster, err := pfs.New(pcfg)
		if err != nil {
			return XLResult{}, err
		}
		mw := mpiio.New(cluster)
		if cfg.Batch {
			if err := mw.EnableBatching(cfg.BatchWindow); err != nil {
				return XLResult{}, err
			}
		}
		if err := enableFaults(mw, cfg.Faults, cfg.FaultSeed, g, nil); err != nil {
			return XLResult{}, err
		}
		var tr trace.Trace
		for a := 0; a < cfg.AppsPerGroup; a++ {
			name := fmt.Sprintf("xl-g%d-a%d", g, a)
			if _, err := cluster.Create(name, lay); err != nil {
				return XLResult{}, fmt.Errorf("bench: xl group %d: %w", g, err)
			}
			app, err := workload.XLApp(workload.XLConfig{
				File:     name,
				Procs:    cfg.ProcsPerApp,
				Requests: perApp,
				Sizes:    cfg.Sizes,
			})
			if err != nil {
				return XLResult{}, err
			}
			// Give every app its own rank/PID space so the replay runs
			// the group's apps concurrently, not as one serialized rank.
			for i := range app {
				app[i].Rank += a * cfg.ProcsPerApp
				app[i].PID += a * 100000
			}
			tr = append(tr, app...)
		}
		// LockStep: the XL workload is bulk-synchronous checkpointing —
		// every rank barriers between I/O phases, so each phase's cohort
		// issues at one virtual instant (which is also the adjacency the
		// batching stage merges).
		p, err := replay.Start(mw, tr, replay.Options{Mode: replay.LockStep})
		if err != nil {
			return XLResult{}, fmt.Errorf("bench: xl group %d: %w", g, err)
		}
		engines[g] = cluster.Eng
		pendings[g] = p
		res.Requests += len(tr)
	}

	shards := cfg.Shards
	if shards <= 0 {
		shards = cfg.Groups
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res.Events = sim.RunSharded(engines, shards, cfg.Workers)
	res.WallSeconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if res.Requests > 0 {
		res.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Requests)
	}

	res.PerGroup = make([]XLGroupResult, cfg.Groups)
	for g, p := range pendings {
		r, err := p.Finish()
		if err != nil {
			return XLResult{}, fmt.Errorf("bench: xl group %d: %w", g, err)
		}
		res.PerGroup[g] = XLGroupResult{Ops: r.Ops, Bytes: r.TotalBytes(), Makespan: r.Makespan}
		res.Bytes += r.TotalBytes()
		if r.Makespan > res.Makespan {
			res.Makespan = r.Makespan
		}
	}
	if res.WallSeconds > 0 {
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
	}
	return res, nil
}
