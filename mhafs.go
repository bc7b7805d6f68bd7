// Package mhafs is a Go reproduction of "A Migratory Heterogeneity-Aware
// Data Layout Scheme for Parallel File Systems" (He, Sun, Wang, Xu): the
// MHA layout optimizer together with the complete substrate it needs — a
// deterministic discrete-event simulation of a hybrid parallel file system
// with HDD-backed HServers and SSD-backed SServers.
//
// The System type is the high-level entry point. It wires the pieces the
// way the paper deploys them:
//
//  1. Run the application once with tracing on (Open/ReadAt/WriteAt —
//     the miniature MPI-IO middleware records every request).
//  2. Call Optimize with a scheme (DEF, AAL, HARL, or the paper's MHA):
//     the trace is analyzed, requests are clustered by (size,
//     concurrency), data migrates into per-group regions, and each region
//     receives a cost-model-optimized <h, s> stripe pair.
//  3. Run the application again; requests are transparently redirected to
//     the reordered regions.
//
// Lower-level building blocks (the cost model, the k-means request
// grouping, the RSSD stripe search, the trace codec, the workload
// generators for IOR/HPIO/BTIO/LANL/LU/Cholesky, and the per-figure
// experiment harness) are exposed as type aliases so downstream code can
// compose them directly.
package mhafs

import (
	"fmt"
	"sort"

	"mhafs/internal/bench"
	"mhafs/internal/dynamic"
	"mhafs/internal/iopath"
	"mhafs/internal/iosig"
	"mhafs/internal/layout"
	"mhafs/internal/mpiio"
	"mhafs/internal/pfs"
	"mhafs/internal/plancache"
	"mhafs/internal/region"
	"mhafs/internal/reorder"
	"mhafs/internal/replay"
	"mhafs/internal/server"
	"mhafs/internal/stripe"
	"mhafs/internal/trace"
	"mhafs/internal/workload"
)

// Re-exported core types. Each alias names the canonical implementation in
// the corresponding internal package.
type (
	// Trace is an ordered list of I/O records.
	Trace = trace.Trace
	// Record is one traced file operation.
	Record = trace.Record
	// Op is a request type (OpRead / OpWrite).
	Op = trace.Op

	// Scheme selects a layout planner (DEF, AAL, HARL, MHA).
	Scheme = layout.Scheme
	// PlanEnv is the planning environment (cluster shape, cost model,
	// search parameters).
	PlanEnv = layout.Env
	// Plan is a planner's output: regions plus reordering mappings.
	Plan = layout.Plan

	// ClusterConfig describes the simulated hybrid PFS.
	ClusterConfig = pfs.Config
	// Cluster is the simulated file system.
	Cluster = pfs.Cluster
	// FileHandle is one rank's open file.
	FileHandle = mpiio.FileHandle

	// ReplayResult summarizes a trace replay.
	ReplayResult = replay.Result

	// BenchConfig parameterizes the per-figure experiment harness.
	BenchConfig = bench.Config
)

// Request types.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// Layout schemes, in the paper's comparison order.
const (
	DEF  = layout.DEF
	AAL  = layout.AAL
	HARL = layout.HARL
	MHA  = layout.MHA
)

// Config assembles a System.
type Config struct {
	// Cluster is the simulated hybrid PFS; zero value selects the paper's
	// testbed (6 HServers, 2 SServers, GbE, 64 KB default stripes).
	Cluster ClusterConfig

	// Plan is the planning environment; zero value selects the paper's
	// parameters (4 KB search step, at most 16 regions). Server counts
	// follow Cluster.
	Plan PlanEnv

	// RedirectLookup is the client-side DRT lookup latency charged per
	// redirected request (seconds).
	RedirectLookup float64

	// DRTPath / RSTPath persist the reordering tables; empty keeps them
	// in memory.
	DRTPath string
	RSTPath string

	// PlanCache, when non-nil, memoizes planner output by content address
	// so repeated Optimize calls over unchanged traces — including the
	// dynamic monitor's periodic re-planning — skip the stripe search and
	// reuse the earlier plan byte for byte. Re-optimization generations
	// carry distinct Env tags and therefore distinct keys.
	PlanCache *plancache.Cache
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Cluster:        pfs.DefaultConfig(),
		Plan:           layout.DefaultEnv(),
		RedirectLookup: 1e-6,
	}
}

// System is a hybrid PFS with the MHA middleware attached.
type System struct {
	cfg        Config
	cluster    *pfs.Cluster
	mw         *mpiio.Middleware
	collector  *iosig.Collector
	recorder   *iopath.Recorder
	placement  *reorder.Placement
	generation int

	// retired accumulates region files created by plan generations that
	// have since been replaced; GarbageCollect consults it instead of
	// guessing from file names.
	retired map[string]bool
}

// NewSystem builds a fresh simulated cluster with tracing enabled.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Cluster.HServers == 0 && cfg.Cluster.SServers == 0 {
		cfg.Cluster = pfs.DefaultConfig()
	}
	if cfg.Plan.M == 0 && cfg.Plan.N == 0 {
		cfg.Plan = layout.DefaultEnv()
	}
	cfg.Plan.M = cfg.Cluster.HServers
	cfg.Plan.N = cfg.Cluster.SServers
	cluster, err := pfs.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	mw := mpiio.New(cluster)
	col := iosig.NewCollector(cluster.Eng.Now)
	mw.SetCollector(col)
	rec := iopath.NewRecorder()
	if err := mw.Intercept("observe", rec); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, cluster: cluster, mw: mw, collector: col, recorder: rec,
		retired: make(map[string]bool)}, nil
}

// Cluster exposes the underlying simulated file system (for server stats,
// direct file creation, and driving the virtual clock).
func (s *System) Cluster() *Cluster { return s.cluster }

// Now returns the current virtual time in seconds.
func (s *System) Now() float64 { return s.cluster.Eng.Now() }

// Open opens (creating on demand) a file for the given MPI rank.
func (s *System) Open(name string, rank int) (*FileHandle, error) {
	return s.mw.Open(name, rank)
}

// SetTracing toggles the I/O collector (on by default).
func (s *System) SetTracing(on bool) {
	if on {
		s.collector.Enable()
	} else {
		s.collector.Disable()
	}
}

// Trace returns the collected trace sorted by offset (the layout phases'
// input order); RawTrace preserves issue order.
func (s *System) Trace() Trace { return s.collector.Trace() }

// RawTrace returns the collected trace in issue order.
func (s *System) RawTrace() Trace { return s.collector.RawTrace() }

// ResetTrace discards collected records.
func (s *System) ResetTrace() { s.collector.Reset() }

// Optimize runs the offline phases of the chosen scheme on the given
// trace (pass nil to use the collected trace): grouping, reordering,
// stripe-size determination, placement and data migration. Subsequent
// requests are redirected to the optimized regions.
//
// Calling Optimize on an already-optimized system re-optimizes: a new
// generation of regions is planned from the trace, populated from
// wherever the previous generation placed the bytes, and atomically
// switched in — the dynamic mode the paper lists as future work. The
// trace passed to a re-optimization must cover every extent whose data
// should remain reachable (the cumulative collected trace does).
func (s *System) Optimize(scheme Scheme, tr Trace) error {
	if tr == nil {
		tr = s.Trace()
	}
	if len(tr) == 0 {
		return fmt.Errorf("mhafs: empty trace; run the application with tracing first")
	}
	planner, err := layout.NewPlanner(scheme)
	if err != nil {
		return err
	}
	planner = plancache.Wrap(planner, s.cfg.PlanCache)
	env := s.cfg.Plan
	opts := reorder.Options{
		DRTPath: s.cfg.DRTPath,
		RSTPath: s.cfg.RSTPath,
		Migrate: true,
	}
	if s.placement != nil {
		// Re-optimization: tag the new generation and migrate from the
		// previous placement's locations.
		s.generation++
		env.Tag = fmt.Sprintf("g%d", s.generation)
		opts.Via = s.placement.DRT
		// Generation tables are volatile; persisting several generations
		// to one path would interleave them.
		opts.DRTPath, opts.RSTPath = "", ""
	}
	plan, err := planner.Plan(tr, env)
	if err != nil {
		return err
	}
	placement, err := reorder.Apply(s.cluster, plan, opts)
	if err != nil {
		return err
	}
	if s.placement != nil {
		// The previous generation's region files are now garbage unless the
		// new plan reuses them (GarbageCollect re-checks liveness anyway).
		for _, name := range s.placement.RegionFiles() {
			s.retired[name] = true
		}
		s.placement.Close()
	}
	s.placement = placement
	s.mw.SetRedirector(reorder.SchemeRedirector(scheme, placement.DRT, s.cfg.RedirectLookup))
	return nil
}

// Generation returns how many re-optimizations have occurred (0 after the
// first Optimize).
func (s *System) Generation() int { return s.generation }

// Plan returns the applied plan (zero Plan before Optimize).
func (s *System) Plan() Plan {
	if s.placement == nil {
		return Plan{}
	}
	return s.placement.Plan
}

// Replay re-issues a trace against the system and reports aggregate
// bandwidth and per-server loads.
func (s *System) Replay(tr Trace) (ReplayResult, error) {
	return replay.Run(s.mw, tr)
}

// GarbageCollect removes region files left behind by retired plan
// generations, reclaiming their server-side storage. Retired regions are
// tracked explicitly — each Optimize records the region files of the
// placement it replaces — so collection never has to guess from file
// names; region.HasSchemeMarker additionally shields original files that
// served as identity regions (DEF/AAL map a file onto itself). A retired
// file is kept if the current plan or DRT still references it. Returns
// the names removed, sorted. Safe to call any time after a
// re-optimization.
func (s *System) GarbageCollect() []string {
	if s.placement == nil || len(s.retired) == 0 {
		return nil
	}
	live := make(map[string]bool)
	for _, r := range s.placement.Plan.Regions {
		live[r.File] = true
	}
	for _, f := range s.placement.DRT.Files() {
		live[f] = true // original files stay
	}
	var removed []string
	for name := range s.retired {
		if live[name] || !region.HasSchemeMarker(name) {
			continue
		}
		if _, ok := s.cluster.Lookup(name); !ok {
			delete(s.retired, name)
			continue
		}
		s.cluster.Remove(name)
		delete(s.retired, name)
		removed = append(removed, name)
	}
	sort.Strings(removed)
	return removed
}

// Staged I/O pipeline types, re-exported so callers can observe or
// reshape the request path without importing internal packages.
type (
	// PipelineRequest is the descriptor that flows client→server through
	// the stage chain for every independent I/O operation.
	PipelineRequest = iopath.Request
	// Stage is one link of the chain; it may observe or rewrite the
	// request and decides whether to forward via next.
	Stage = iopath.Stage
	// StageFunc adapts a function to the Stage interface.
	StageFunc = iopath.StageFunc
	// Handler forwards a request to the rest of the chain.
	Handler = iopath.Handler
	// PipelineRecord is one completed request as seen by the built-in
	// recorder (submit/complete virtual times).
	PipelineRecord = iopath.Record
)

// Intercept registers an interceptor stage on the system's request path:
// after trace capture, before redirection and striping. Every independent
// request (and each collective operation's file-domain requests)
// traverses it.
func (s *System) Intercept(name string, st Stage) error {
	return s.mw.Intercept(name, st)
}

// Uninstall removes a named interceptor, reporting whether it was
// present.
func (s *System) Uninstall(name string) bool { return s.mw.Uninstall(name) }

// Completions returns the per-request completion records captured by the
// system's built-in pipeline recorder, in completion order.
func (s *System) Completions() []PipelineRecord { return s.recorder.Records() }

// CompletionTrace converts the completion records to a Trace (skipping
// untraced internal requests), usable as Optimize input.
func (s *System) CompletionTrace() Trace { return s.recorder.CompletionTrace() }

// ResetCompletions discards captured completion records.
func (s *System) ResetCompletions() { s.recorder.Reset() }

// Close releases the reordering tables, if any.
func (s *System) Close() error {
	if s.placement == nil {
		return nil
	}
	err := s.placement.Close()
	s.placement = nil
	return err
}

// Workload generator configurations, re-exported for example and
// benchmark use.
type (
	IORConfig      = workload.IORConfig
	HPIOConfig     = workload.HPIOConfig
	BTIOConfig     = workload.BTIOConfig
	LANLConfig     = workload.LANLConfig
	LUConfig       = workload.LUConfig
	CholeskyConfig = workload.CholeskyConfig
)

// Workload generators.
var (
	IOR      = workload.IOR
	HPIO     = workload.HPIO
	BTIO     = workload.BTIO
	LANL     = workload.LANL
	LU       = workload.LU
	Cholesky = workload.Cholesky
)

// DefaultBenchConfig returns the experiment harness configured like the
// paper's testbed.
func DefaultBenchConfig() BenchConfig { return bench.Default() }

// Collective (two-phase) I/O, as MPI-IO performs for interleaved shared-
// file access. Collective operations flow through the same tracing and
// redirection hooks as independent ones.
type (
	// Piece is one rank's contribution to a collective operation.
	Piece = mpiio.Piece
	// CollectiveOptions tunes the two-phase exchange (aggregator count).
	CollectiveOptions = mpiio.CollectiveOptions
)

// CollectiveWrite performs a two-phase collective write and runs the
// engine to completion, returning the virtual finish time.
func (s *System) CollectiveWrite(name string, pieces []Piece, opts CollectiveOptions) (float64, error) {
	var end float64
	if err := s.mw.CollectiveWrite(name, pieces, opts, func(e float64) { end = e }); err != nil {
		return 0, err
	}
	s.cluster.Eng.Run()
	return end, nil
}

// CollectiveRead performs a two-phase collective read into the pieces'
// buffers and runs the engine to completion.
func (s *System) CollectiveRead(name string, pieces []Piece, opts CollectiveOptions) (float64, error) {
	var end float64
	if err := s.mw.CollectiveRead(name, pieces, opts, func(e float64) { end = e }); err != nil {
		return 0, err
	}
	s.cluster.Eng.Run()
	return end, nil
}

// Dynamic re-optimization (the paper's future work): a DynamicManager
// watches the live trace and re-plans when the access pattern drifts.
type (
	// DynamicPolicy tunes drift detection and re-plan throttling.
	DynamicPolicy = dynamic.Policy
	// DynamicManager drives divergence-triggered re-optimization.
	DynamicManager = dynamic.Manager
)

// DefaultDynamicPolicy compares the last 256 requests against the plan's
// baseline and re-optimizes at 30% divergence.
func DefaultDynamicPolicy() DynamicPolicy { return dynamic.DefaultPolicy() }

// NewDynamicManager attaches divergence-triggered re-optimization to a
// system. Call Check after each I/O phase (or on a timer); the manager
// plans initially once a full window of requests has been observed and
// re-plans (a new region generation, migrated in place) when the pattern
// drifts.
func NewDynamicManager(sys *System, scheme Scheme, policy DynamicPolicy) (*DynamicManager, error) {
	return dynamic.NewManager(sys, scheme, policy)
}

// ResumeSystem rebuilds a system from persisted reordering tables — the
// recovery path the paper's synchronous write-through exists for
// ("changes ... are synchronously written to the storage in order to
// survive power failures"). The configuration must carry the DRTPath and
// RSTPath of the previous instance. Region files are re-created with the
// layouts the RST recorded and the redirector is re-attached, so the
// application's next run places data exactly as the optimized plan
// prescribed. (Simulated server contents are volatile; what survives a
// restart is the placement metadata, as on a real deployment where the
// PFS holds the data.)
func ResumeSystem(cfg Config) (*System, error) {
	if cfg.DRTPath == "" || cfg.RSTPath == "" {
		return nil, fmt.Errorf("mhafs: resume requires DRTPath and RSTPath")
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	drt, err := region.OpenDRT(cfg.DRTPath)
	if err != nil {
		sys.Close()
		return nil, err
	}
	rst, err := region.OpenRST(cfg.RSTPath)
	if err != nil {
		drt.Close()
		sys.Close()
		return nil, err
	}
	if rst.Len() == 0 {
		drt.Close()
		rst.Close()
		sys.Close()
		return nil, fmt.Errorf("mhafs: no persisted plan at %s", cfg.RSTPath)
	}
	var createErr error
	rst.ForEach(func(name string, l stripe.Layout) bool {
		if _, ok := sys.cluster.Lookup(name); ok {
			return true
		}
		if _, err := sys.cluster.Create(name, l); err != nil {
			createErr = err
			return false
		}
		return true
	})
	if createErr != nil {
		drt.Close()
		rst.Close()
		sys.Close()
		return nil, createErr
	}
	sys.placement = reorder.Resume(sys.cluster, drt, rst)
	sys.mw.SetRedirector(reorder.NewRedirector(drt, cfg.RedirectLookup))
	return sys, nil
}

// ServerStats returns per-server activity (reads/writes/bytes/busy time)
// in flat order (HServers first) — the data behind the paper's Fig. 8.
func (s *System) ServerStats() []ServerStats {
	return s.cluster.ServerStats()
}

// ServerStats summarizes one server's activity.
type ServerStats = server.Stats
