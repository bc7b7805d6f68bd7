// Command mhabench regenerates the tables and figures of the MHA paper's
// evaluation (§V) on the simulated hybrid parallel file system.
//
// Usage:
//
//	mhabench [-fig all|3|7|8|9|10|11|12a|12b|13a|13b|14|meta]
//	         [-scale N|paper|xl] [-hservers N] [-sservers N] [-workers N]
//	         [-csv] [-json[=FILE]]
//	         [-plan-cache mem|dir|off] [-plan-cache-dir DIR]
//	         [-telemetry] [-telemetry-format json|prom]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	mhabench -scale xl [-xl-groups N] [-xl-apps N] [-xl-procs N]
//	         [-xl-requests N] [-shards N] [-batch=false] [-batch-window S]
//	         [-min-events-per-sec F] [...]
//	mhabench -faults none|straggler|flaky|outage|all [-fault-seed N] [...]
//	mhabench -adaptive [-faults SCENARIO|all] [-fault-seed N] [...]
//	mhabench -compare [-tolerance T] OLD.json NEW.json
//
// -scale selects the workload tier: a number divides the paper's workload
// volumes (default 64; 1 reproduces the full 16 GB runs; "paper" is an
// alias for 64), and "xl" runs the XL simulation tier instead of the
// paper figures — many server groups (-xl-groups of -hservers/-sservers
// servers each, 16×8 = 128 by default), many concurrent apps, ≥10⁶
// requests on dataless clusters, driven through the sharded engine
// (-shards, -workers) with sub-request batching (-batch). The XL table on
// stdout is deterministic at every shard/worker count; the wall-clock
// throughput goes to stderr, and -min-events-per-sec turns it into a CI
// floor (exit 1 when slower). -hservers/-sservers override the default
// 6 HServer : 2 SServer cluster (per group in the XL tier); -h prints
// usage. -workers bounds the harness fan-out (independent scheme × figure
// cells and planner-internal stripe searches run concurrently;
// default 0 uses GOMAXPROCS, 1 is fully serial) — output is byte-identical
// at every worker count. -csv emits CSV instead of aligned text. -json
// additionally writes every generated table — plus the per-scheme
// aggregate bandwidth across the bandwidth figures — to FILE (default
// BENCH_pipeline.json) as machine-readable JSON.
//
// -plan-cache memoizes planner output by content address (default mem):
// figure cells that pose identical planning problems — the same workload
// re-planned across sweep points, fault scenarios, or adaptive variants —
// plan once and share the result. "dir" persists plans under
// -plan-cache-dir so later invocations start warm; "off" plans every cell
// from scratch. Every figure, table and export is byte-identical in every
// mode (plans are pure functions of the cache key); only wall-clock time
// and the plan_cache_* telemetry series change.
//
// -telemetry threads a telemetry registry through every replayed scheme
// and appends the snapshot (canonical JSON, or Prometheus text exposition
// with -telemetry-format prom) to stdout after the tables. Everything is
// measured in virtual time, so two identical invocations emit
// byte-identical snapshots.
//
// -faults runs the resilience figure instead of the paper's: every layout
// scheme replays the Fig. 8 write workload under the named seeded fault
// scenario ("all" sweeps none, straggler, flaky, outage) with the client's
// retry/failover stages enabled, and prints the completion-time and
// fault-action tables. -fault-seed varies the scenario's pseudo-random
// window placement (default 1). The figure is deterministic: byte-identical
// at every -workers setting and across repeated runs.
//
// -adaptive runs the adaptive-scheduling figure instead of the paper's:
// every layout scheme replays the resilience workload twice per scenario —
// static, and with the client's straggler-aware SASIO scheduler enabled
// (per-server latency estimation, reroute, speculative re-issue) — and the
// completion-time and scheduler-action tables are printed. -faults selects
// the scenarios (default all). The figure is deterministic: byte-identical
// at every -workers setting and across repeated runs.
//
// -compare is the CI perf-gate: it diffs the aggregate bandwidth of two
// -json exports and exits nonzero when NEW regressed more than the
// relative tolerance (default 0.05) below OLD for any scheme.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"mhafs/internal/bench"
	"mhafs/internal/cliflags"
	"mhafs/internal/config"
	"mhafs/internal/fault"
	"mhafs/internal/metrics"
	"mhafs/internal/telemetry"
	"mhafs/internal/units"
)

// optFile is a flag that may be given bare (-json → default path) or with
// a value (-json=custom.json).
type optFile struct {
	path string
	def  string
}

func (f *optFile) String() string { return f.path }
func (f *optFile) Set(v string) error {
	switch v {
	case "", "true":
		f.path = f.def
	case "false":
		f.path = ""
	default:
		f.path = v
	}
	return nil
}
func (f *optFile) IsBoolFlag() bool { return true }

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate (all, 3, 7, 8, 9, 10, 11, 12a, 12b, 13a, 13b, 14, meta, ablation-step, ablation-k, ablation-conc, scaling, extended)")
		scale     = flag.String("scale", "64", "workload tier: a divisor of the paper volumes, \"paper\" (= 64), or \"xl\" for the XL simulation tier")
		workers   = cliflags.Workers(flag.CommandLine)
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = optFile{def: "BENCH_pipeline.json"}
		calPath   = flag.String("config", "", "JSON calibration file overriding device/network/planner defaults")
		telem     = flag.Bool("telemetry", false, "emit the run's telemetry snapshot to stdout after the tables")
		telFormat = flag.String("telemetry-format", "json", "telemetry snapshot format: json (canonical) or prom (Prometheus text)")
		faults    = flag.String("faults", "", "run the resilience figure under this seeded fault scenario (none, straggler, flaky, outage, or all) instead of the paper figures")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault scenario's pseudo-random window placement")
		adaptiveF = flag.Bool("adaptive", false, "run the adaptive-scheduling figure (static vs +SASIO per scheme) under the -faults scenarios (default all) instead of the paper figures")
		xlGroups  = flag.Int("xl-groups", 16, "XL tier: server groups (each -hservers HServers + -sservers SServers)")
		xlApps    = flag.Int("xl-apps", 4, "XL tier: concurrent apps per group")
		xlProcs   = flag.Int("xl-procs", 32, "XL tier: ranks per app")
		xlReqs    = flag.Int("xl-requests", 1_000_000, "XL tier: total request count")
		shards    = flag.Int("shards", 0, "XL tier: engine shard count for the sharded drive (0 = one per group); output is identical at any setting")
		batch     = flag.Bool("batch", true, "XL tier: merge contiguous same-server sub-requests into single service events")
		batchWin  = flag.Float64("batch-window", 0, "XL tier: batching aggregation window in virtual seconds (0 flushes per instant)")
		minEPS    = flag.Float64("min-events-per-sec", 0, "XL tier: exit nonzero when wall-clock events/sec falls below this floor")
		planCache = cliflags.PlanCache(flag.CommandLine)
		compare   = flag.Bool("compare", false, "perf-gate mode: compare two -json exports (mhabench -compare OLD.json NEW.json)")
		tolerance = flag.Float64("tolerance", 0.05, "relative bandwidth tolerance for -compare (0.05 = 5% slower still passes)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	hSrv, sSrv := cliflags.Servers(flag.CommandLine)
	flag.Var(&jsonOut, "json", "also write the results as JSON to this file (bare -json writes BENCH_pipeline.json)")
	flag.Parse()

	if *compare {
		runCompare(flag.Args(), *tolerance)
		return
	}
	if args := flag.Args(); len(args) != 0 {
		fatal(fmt.Errorf("unexpected arguments %q (positional arguments are only used with -compare)", args))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if strings.EqualFold(*scale, "xl") {
		xl := bench.XLConfig{
			Groups:       *xlGroups,
			HPerGroup:    *hSrv,
			SPerGroup:    *sSrv,
			AppsPerGroup: *xlApps,
			ProcsPerApp:  *xlProcs,
			Requests:     *xlReqs,
			Shards:       *shards,
			Workers:      *workers,
			Batch:        *batch,
			BatchWindow:  *batchWin,
			FaultSeed:    *faultSeed,
		}
		if f := strings.ToLower(*faults); f != "" && f != "all" {
			sc, err := fault.ParseScenario(f)
			if err != nil {
				fatal(err)
			}
			xl.Faults = sc
		}
		runXL(xl, *csv, jsonOut.path, *minEPS)
		return
	}
	scaleDiv := int64(64)
	if !strings.EqualFold(*scale, "paper") {
		v, err := strconv.ParseInt(*scale, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -scale %q (want a number, \"paper\" or \"xl\")", *scale))
		}
		scaleDiv = v
	}

	cfg := bench.Default()
	cfg.Scale = scaleDiv
	cfg.Cluster.HServers, cfg.Env.M = *hSrv, *hSrv
	cfg.Cluster.SServers, cfg.Env.N = *sSrv, *sSrv
	cfg.Workers, cfg.Env.Workers = *workers, *workers
	if *calPath != "" {
		cal, err := config.Load(*calPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = cal.Apply(cfg)
		if err != nil {
			fatal(err)
		}
	}
	var reg *telemetry.Registry
	if *telem {
		switch *telFormat {
		case "json", "prom":
		default:
			fatal(fmt.Errorf("unknown -telemetry-format %q (want json or prom)", *telFormat))
		}
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	cache, err := planCache.Open()
	if err != nil {
		fatal(err)
	}
	cfg.PlanCache = cache
	// The cache's own counters go into the snapshot at exit: they are the
	// only series that legitimately vary with the cache mode (planner
	// search totals and every figure stay byte-identical across modes).
	finish := func() {
		if reg != nil {
			if cache != nil {
				cache.EmitTelemetry(reg)
			}
			emitTelemetry(reg, *telFormat)
		}
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	if *adaptiveF {
		cfg.FaultSeed = *faultSeed
		runAdaptive(cfg, *faults, *csv)
		finish()
		return
	}
	if *faults != "" {
		cfg.FaultSeed = *faultSeed
		runFaults(cfg, *faults, *csv)
		finish()
		return
	}

	type runner struct {
		id    string
		extra bool // not part of the paper's figures; excluded from "all"
		fn    func() (*metrics.Table, []bench.BandwidthRow, error)
	}
	runners := []runner{
		{"3", false, func() (*metrics.Table, []bench.BandwidthRow, error) { return bench.Fig3(5), nil, nil }},
		{"7", false, tableOf(cfg.Fig7)},
		{"8", false, plainTable(cfg.Fig8)},
		{"9", false, tableOf(cfg.Fig9)},
		{"10", false, tableOf(cfg.Fig10)},
		{"11", false, tableOf(cfg.Fig11)},
		{"12a", false, tableOf(cfg.Fig12a)},
		{"12b", false, tableOf(cfg.Fig12b)},
		{"13a", false, tableOf(cfg.Fig13a)},
		{"13b", false, tableOf(cfg.Fig13b)},
		{"14", false, plainTable(cfg.Fig14)},
		{"latency", true, plainTable(cfg.Latency)},
		{"extended", true, plainTable(cfg.Extended)},
		{"scaling", true, plainTable(cfg.Scaling)},
		{"ablation-step", true, plainTable(cfg.StepAblation)},
		{"ablation-k", true, plainTable(cfg.GroupBoundAblation)},
		{"ablation-straggler", true, plainTable(cfg.StragglerAblation)},
		{"ablation-conc", true, plainTable(cfg.ConcurrencyAblation)},
		{"meta", false, func() (*metrics.Table, []bench.BandwidthRow, error) {
			_, tb := bench.MetaOverhead([]int64{4 * units.KB, 16 * units.KB, 64 * units.KB, 1 * units.MB})
			return tb, nil, nil
		}},
	}

	want := strings.ToLower(*fig)
	ran := false
	export := bench.Export{
		Scale:    scaleDiv,
		HServers: *hSrv,
		SServers: *sSrv,
	}
	agg := bench.NewAggregator()
	for _, r := range runners {
		if want == "all" && r.extra {
			continue // extras (ablations, scaling, …) run only by name
		}
		if want != "all" && want != r.id {
			continue
		}
		ran = true
		tb, rows, err := r.fn()
		if err != nil {
			fatal(fmt.Errorf("fig %s: %w", r.id, err))
		}
		if *csv {
			if err := tb.FprintCSV(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			if err := tb.Fprint(os.Stdout); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
		export.AddFigure(r.id, tb)
		agg.Add(rows)
	}
	if !ran {
		fatal(fmt.Errorf("unknown figure %q (see -help for the list)", *fig))
	}
	if jsonOut.path != "" {
		export.Bandwidth = agg.Summary()
		if err := export.WriteFile(jsonOut.path); err != nil {
			fatal(err)
		}
	}
	finish()
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// runXL runs the XL tier: the deterministic table goes to stdout, the
// wall-clock throughput to stderr, and the optional events/sec floor
// turns the run into a CI gate.
func runXL(cfg bench.XLConfig, csv bool, jsonPath string, floor float64) {
	res, err := bench.RunXL(cfg)
	if err != nil {
		fatal(err)
	}
	tb := res.Table()
	if csv {
		err = tb.FprintCSV(os.Stdout)
	} else {
		err = tb.Fprint(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Fprintf(os.Stderr, "mhabench: xl: %d events in %.2fs wall = %.0f events/sec, ~%.2f allocs/op\n",
		res.Events, res.WallSeconds, res.EventsPerSec, res.AllocsPerOp)
	if jsonPath != "" {
		export := bench.Export{
			Scale:        1,
			HServers:     cfg.HPerGroup,
			SServers:     cfg.SPerGroup,
			ScaleTier:    "xl",
			EventsPerSec: res.EventsPerSec,
			AllocsPerOp:  res.AllocsPerOp,
		}
		export.AddFigure("xl", tb)
		if err := export.WriteFile(jsonPath); err != nil {
			fatal(err)
		}
	}
	if floor > 0 && res.EventsPerSec < floor {
		fatal(fmt.Errorf("xl: %.0f events/sec below the -min-events-per-sec floor %.0f", res.EventsPerSec, floor))
	}
}

// runFaults runs the resilience figure and prints both of its tables.
func runFaults(cfg bench.Config, name string, csv bool) {
	var scenarios []fault.Scenario
	if strings.ToLower(name) != "all" {
		sc, err := fault.ParseScenario(name)
		if err != nil {
			fatal(err)
		}
		scenarios = []fault.Scenario{sc}
	}
	_, tables, err := cfg.FigFaults(scenarios)
	if err != nil {
		fatal(err)
	}
	for _, tb := range tables {
		if csv {
			err = tb.FprintCSV(os.Stdout)
		} else {
			err = tb.Fprint(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

// runAdaptive runs the adaptive-scheduling figure and prints both of its
// tables. name selects the scenarios like runFaults does; empty means all.
func runAdaptive(cfg bench.Config, name string, csv bool) {
	var scenarios []fault.Scenario
	if name != "" && strings.ToLower(name) != "all" {
		sc, err := fault.ParseScenario(name)
		if err != nil {
			fatal(err)
		}
		scenarios = []fault.Scenario{sc}
	}
	_, tables, err := cfg.FigAdaptive(scenarios)
	if err != nil {
		fatal(err)
	}
	for _, tb := range tables {
		if csv {
			err = tb.FprintCSV(os.Stdout)
		} else {
			err = tb.Fprint(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

// emitTelemetry writes the registry snapshot to stdout in the chosen
// format.
func emitTelemetry(reg *telemetry.Registry, format string) {
	var err error
	if format == "prom" {
		err = reg.WritePrometheus(os.Stdout)
	} else {
		err = reg.WriteJSON(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

// runCompare is the perf-gate: exit 0 when NEW holds OLD's aggregate
// bandwidth within the tolerance, 1 on regression, 2 on usage/IO errors.
func runCompare(args []string, tolerance float64) {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "mhabench: -compare needs exactly two arguments: OLD.json NEW.json")
		os.Exit(2)
	}
	oldExp, err := bench.LoadExport(args[0])
	if err != nil {
		fatal(err)
	}
	newExp, err := bench.LoadExport(args[1])
	if err != nil {
		fatal(err)
	}
	regs, err := bench.CompareExports(oldExp, newExp, tolerance)
	if err != nil {
		fatal(err)
	}
	if len(regs) > 0 {
		// Worst first (CompareExports orders by shortfall) with the gate's
		// setting up front, so a red CI log reads top-down.
		fmt.Fprintf(os.Stderr, "mhabench: %d regression(s) beyond the %.0f%% tolerance, worst first:\n",
			len(regs), tolerance*100)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "mhabench: REGRESSION:", r)
		}
		os.Exit(1)
	}
	fmt.Printf("perf-gate ok: %s within %.0f%% of %s (%d schemes gated)\n",
		args[1], tolerance*100, args[0], len(oldExp.Bandwidth))
}

func tableOf(fn func() ([]bench.BandwidthRow, *metrics.Table, error)) func() (*metrics.Table, []bench.BandwidthRow, error) {
	return func() (*metrics.Table, []bench.BandwidthRow, error) {
		rows, tb, err := fn()
		return tb, rows, err
	}
}

// plainTable adapts figure runners whose first result is not a bandwidth
// row set.
func plainTable[T any](fn func() (T, *metrics.Table, error)) func() (*metrics.Table, []bench.BandwidthRow, error) {
	return func() (*metrics.Table, []bench.BandwidthRow, error) {
		_, tb, err := fn()
		return tb, nil, err
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhabench:", err)
	os.Exit(1)
}
