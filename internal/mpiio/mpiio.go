// Package mpiio is the miniature MPI-IO-like middleware layer through
// which applications access the simulated parallel file system.
//
// It is the repository's analogue of the paper's modified MPICH2 library.
// Every independent read and write is described by one iopath.Request and
// submitted into the staged I/O pipeline, in the order iopath fixes:
//
//	trace ──▶ (interceptors…) ──▶ redirect ──▶ adaptive ──▶ resilience
//	      ──▶ stripe ──▶ batch ──▶ server
//
// so the tracing hook (I/O Collector) and the redirection hook (Data
// Reordering Table) are pipeline stages installed with SetCollector and
// SetRedirector rather than hard-wired special cases, the opt-in stages
// come from EnableAdaptive, EnableResilience and EnableBatching, and
// cross-cutting concerns register as interceptors with Intercept — all
// transparently to the application, which only sees
// Open/ReadAt/WriteAt/Close on the original file names.
package mpiio

import (
	"fmt"

	"mhafs/internal/adaptive"
	"mhafs/internal/fault"
	"mhafs/internal/iopath"
	"mhafs/internal/iosig"
	"mhafs/internal/pfs"
	"mhafs/internal/region"
	"mhafs/internal/reorder"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// StageMeter names the application-level telemetry interceptor installed
// by EnableTelemetry.
const StageMeter = "telemetry/meter"

// Middleware binds a cluster to an I/O pipeline.
type Middleware struct {
	Cluster *pfs.Cluster

	// AutoCreate makes WriteAt/ReadAt create missing target files with the
	// cluster default layout, like a PFS creating files on first write.
	AutoCreate bool

	pipe       *iopath.Pipeline
	collector  *iosig.Collector
	redirector *reorder.Redirector
	telemetry  *telemetry.Registry
	resilience *iopath.Resilience
	retryStage *iopath.RetryServerStage
	failover   *reorder.Failover
	adaptive   *adaptive.Scheduler
	batching   bool
	nextFD     int
}

// New creates a middleware over the cluster with the default stage chain
// (trace pass-through, stripe fan-out, server submission) and no hooks
// installed.
func New(c *pfs.Cluster) *Middleware {
	if c == nil {
		panic("mpiio: nil cluster") // wiring bug, not a runtime condition
	}
	m := &Middleware{Cluster: c, AutoCreate: true}
	m.pipe = iopath.NewPipeline(c.Eng)
	must(m.pipe.Set(iopath.StageTrace, &iopath.Capture{}))
	must(m.pipe.Set(iopath.StageStripe, &iopath.Striper{Cluster: c, Files: m}))
	must(m.pipe.Set(iopath.StageServer, iopath.ServerStage{}))
	return m
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("mpiio: pipeline wiring: %v", err))
	}
}

// SetCollector installs (or, with nil, clears) the tracing stage's
// collector. Configuration is not safe concurrently with submission.
func (m *Middleware) SetCollector(col *iosig.Collector) {
	m.collector = col
	must(m.pipe.Set(iopath.StageTrace, &iopath.Capture{Collector: col}))
}

// Collector returns the installed collector (nil when tracing is not
// wired).
func (m *Middleware) Collector() *iosig.Collector { return m.collector }

// SetRedirector installs, replaces or (with nil) removes the DRT
// redirection stage. When telemetry is enabled the redirector inherits
// the registry, so its DRT hit/miss counters survive generation swaps.
// Configuration is not safe concurrently with submission.
func (m *Middleware) SetRedirector(r *reorder.Redirector) {
	m.redirector = r
	if r == nil {
		m.pipe.Remove(iopath.StageRedirect)
		return
	}
	if m.telemetry != nil {
		r.SetTelemetry(m.telemetry)
	}
	must(m.pipe.Set(iopath.StageRedirect, &iopath.Redirect{Redirector: r, Files: m, Eng: m.Cluster.Eng}))
}

// Redirector returns the installed redirector (nil when requests are not
// redirected).
func (m *Middleware) Redirector() *reorder.Redirector { return m.redirector }

// ResilienceOptions configures EnableResilience.
type ResilienceOptions struct {
	// Injector holds the fault schedule; it is attached to every cluster
	// server and armed (window telemetry scheduled) here.
	Injector *fault.Injector
	// Policy bounds retries and backoff; the zero value means
	// DefaultRetryPolicy.
	Policy iopath.RetryPolicy
	// RST, when non-nil, receives the layout of every fallback file the
	// failover layer creates (typically the active placement's RST).
	RST *region.RST
}

// EnableResilience turns on the client's fault handling: the terminal
// server stage is replaced with the retrying one, and a failover stage
// after redirection routes region extents around down servers — writes
// re-stripe onto survivors through a fallback file, reads of unmapped
// data wait for recovery. The injector is attached to the cluster and
// armed. Enabling twice is a wiring bug (the middleware owns one failover
// table per run).
func (m *Middleware) EnableResilience(opts ResilienceOptions) error {
	if opts.Injector == nil {
		return fmt.Errorf("mpiio: resilience needs a fault injector")
	}
	if m.resilience != nil {
		return fmt.Errorf("mpiio: resilience already enabled")
	}
	pol := opts.Policy
	if pol == (iopath.RetryPolicy{}) {
		pol = iopath.DefaultRetryPolicy()
	}
	fo, err := reorder.NewFailover(m.Cluster, opts.RST)
	if err != nil {
		return err
	}
	res, err := iopath.NewResilience(m.Cluster.Eng, opts.Injector, m.Cluster, m, fo, pol)
	if err != nil {
		fo.Close()
		return err
	}
	retry, err := iopath.NewRetryServerStage(m.Cluster.Eng, pol)
	if err != nil {
		fo.Close()
		return err
	}
	m.Cluster.SetFaults(opts.Injector)
	opts.Injector.Arm()
	if m.telemetry != nil {
		opts.Injector.SetTelemetry(m.telemetry)
		res.SetTelemetry(m.telemetry)
		retry.SetTelemetry(m.telemetry)
	}
	must(m.pipe.Set(iopath.StageResilience, res))
	must(m.pipe.Set(iopath.StageServer, retry))
	m.resilience, m.retryStage, m.failover = res, retry, fo
	return nil
}

// Failover returns the degraded-mode failover layer (nil until resilience
// is enabled).
func (m *Middleware) Failover() *reorder.Failover { return m.failover }

// AdaptiveOptions configures EnableAdaptive.
type AdaptiveOptions struct {
	// Policy bounds the scheduler; the zero value means
	// adaptive.DefaultPolicy.
	Policy adaptive.Policy
	// RST, when non-nil, receives the layout of every straggler-avoiding
	// fallback file the scheduler creates (typically the active
	// placement's RST).
	RST *region.RST
}

// EnableAdaptive turns on the client's straggler-aware scheduling
// (SASIO): a stage after redirection and before resilience (so a
// relocated piece can still fail over) that maintains per-server latency
// estimates and reroutes or speculatively re-issues writes around lagging
// servers. The scheduler owns its own failover/relocation tables,
// separate from the resilience stage's outage tables. Enabling twice is a
// wiring bug. Adaptive scheduling and batching are mutually exclusive: a
// merged submission cannot be withdrawn by one of the requests it
// coalesced.
func (m *Middleware) EnableAdaptive(opts AdaptiveOptions) error {
	if m.adaptive != nil {
		return fmt.Errorf("mpiio: adaptive scheduling already enabled")
	}
	if m.batching {
		return fmt.Errorf("mpiio: adaptive scheduling is incompatible with batching")
	}
	pol := opts.Policy
	if pol == (adaptive.Policy{}) {
		pol = adaptive.DefaultPolicy()
	}
	fo, err := reorder.NewFailover(m.Cluster, opts.RST)
	if err != nil {
		return err
	}
	sched, err := adaptive.NewScheduler(m.Cluster, m, fo, pol)
	if err != nil {
		fo.Close()
		return err
	}
	if m.telemetry != nil {
		sched.SetTelemetry(m.telemetry)
	}
	must(m.pipe.Set(iopath.StageAdaptive, sched))
	m.adaptive = sched
	return nil
}

// Adaptive returns the straggler-aware scheduler (nil until adaptive
// scheduling is enabled).
func (m *Middleware) Adaptive() *adaptive.Scheduler { return m.adaptive }

// EnableBatching installs the sub-request batching stage before the
// terminal server stage (or its retrying replacement): sub-requests
// issued within one aggregation window (window virtual seconds; 0 means
// one virtual instant) that address contiguous ranges of the same server
// object are submitted as single merged service events. Batching changes
// the modeled cost — that is its point — so the paper pipelines leave it
// off; the XL tier turns it on. See iopath.Batcher for the merge contract.
func (m *Middleware) EnableBatching(window float64) error {
	if m.batching {
		return fmt.Errorf("mpiio: batching already enabled")
	}
	if m.adaptive != nil {
		return fmt.Errorf("mpiio: batching is incompatible with adaptive scheduling")
	}
	must(m.pipe.Set(iopath.StageBatch, iopath.NewBatcher(m.pipe, window)))
	m.batching = true
	return nil
}

// EnableTelemetry wires the whole I/O path into reg: a stage timer
// observing every pipeline stage against the simulation clock, an
// application-level request meter installed as an interceptor (before
// redirection, so it sees whole requests), per-server busy/queue series,
// striping fan-out, and — when a redirector is installed now or later —
// DRT lookup hit/miss counters. Passing nil disables emission everywhere.
// Configuration is not safe concurrently with submission.
func (m *Middleware) EnableTelemetry(reg *telemetry.Registry) {
	m.telemetry = reg
	m.Cluster.SetTelemetry(reg)
	if m.redirector != nil {
		m.redirector.SetTelemetry(reg)
	}
	if m.resilience != nil {
		m.resilience.SetTelemetry(reg)
		m.retryStage.SetTelemetry(reg)
		if in := m.Cluster.Faults(); in != nil {
			in.SetTelemetry(reg)
		}
	}
	if m.adaptive != nil {
		m.adaptive.SetTelemetry(reg)
	}
	if reg == nil {
		m.pipe.SetObserver(nil)
		m.pipe.Remove(StageMeter)
		return
	}
	m.pipe.SetObserver(iopath.NewStageTimer(reg, m.Cluster.Eng))
	must(m.pipe.Set(StageMeter, iopath.NewMeter(reg)))
}

// Intercept registers an interceptor stage on the request path: after
// trace capture and any earlier interceptors, before redirection and
// striping. Every independent request — and each collective operation's
// aggregated file-domain requests — flows through it. A built-in stage
// name or a name already registered is an error.
func (m *Middleware) Intercept(name string, s iopath.Stage) error {
	return m.pipe.Intercept(name, s)
}

// Uninstall removes a named interceptor, reporting whether it was present.
func (m *Middleware) Uninstall(name string) bool { return m.pipe.Remove(name) }

// ResolveFile implements iopath.FileResolver: it returns the file record
// for name, creating the file with the cluster default layout when
// AutoCreate permits.
func (m *Middleware) ResolveFile(name string) (*pfs.File, error) {
	f, ok := m.Cluster.Lookup(name)
	if ok {
		return f, nil
	}
	if !m.AutoCreate {
		return nil, fmt.Errorf("mpiio: target %q does not exist", name)
	}
	return m.Cluster.CreateDefault(name)
}

// FileHandle is one rank's open file, analogous to an MPI_File.
type FileHandle struct {
	mw   *Middleware
	name string
	rank int
	pid  int
	fd   int

	// untraced marks internal handles (collective aggregators) whose
	// requests must not be captured by the trace stage.
	untraced bool
}

// Open opens name for the given rank, charging one MDS lookup in virtual
// time. The target must exist unless AutoCreate is set. Open shares the
// pipeline's submission lock, so concurrent clients may open and submit
// from separate goroutines.
//
//mhavet:coldpath per-file handle creation, once per file, not per request
func (m *Middleware) Open(name string, rank int) (*FileHandle, error) {
	var h *FileHandle
	var err error
	m.pipe.Exclusive(func() {
		if _, ok := m.Cluster.Lookup(name); !ok {
			if !m.AutoCreate {
				err = fmt.Errorf("mpiio: open %q: no such file", name)
				return
			}
			if _, cerr := m.Cluster.CreateDefault(name); cerr != nil {
				err = cerr
				return
			}
		}
		m.nextFD++
		h = &FileHandle{mw: m, name: name, rank: rank, pid: 1000 + rank, fd: m.nextFD}
		// Charge the MDS lookup asynchronously; the first data operation
		// will queue behind it only through the MDS resource, matching a
		// real open.
		if oerr := m.Cluster.OpenHandle(name, nil); oerr != nil {
			h, err = nil, oerr
		}
	})
	return h, err
}

// Name returns the logical (original) file name the handle refers to.
func (h *FileHandle) Name() string { return h.name }

// Rank returns the MPI rank owning the handle.
func (h *FileHandle) Rank() int { return h.rank }

// WriteAt schedules a write of data at offset off in the logical file.
// done (optional) receives the virtual completion time of the slowest
// piece. The caller drives the simulation engine.
func (h *FileHandle) WriteAt(data []byte, off int64, done func(end float64)) error {
	return h.issue(trace.OpWrite, off, data, done)
}

// ReadAt schedules a read into buf from offset off; buf is populated when
// done runs.
func (h *FileHandle) ReadAt(buf []byte, off int64, done func(end float64)) error {
	return h.issue(trace.OpRead, off, buf, done)
}

// issue wraps the operation in a Request and submits it to the pipeline.
func (h *FileHandle) issue(op trace.Op, off int64, buf []byte, done func(end float64)) error {
	if off < 0 {
		return fmt.Errorf("mpiio: negative offset %d", off)
	}
	if len(buf) == 0 {
		// Zero-length operations complete immediately without entering
		// the chain (and, as before, are never traced).
		eng := h.mw.Cluster.Eng
		if done != nil {
			eng.Schedule(0, func() { done(eng.Now()) }) //mhavet:allow closure
		}
		return nil
	}
	// Root descriptors come from the pipeline's pool and are recycled
	// when they finish; nothing here retains req past Submit.
	req := h.mw.pipe.NewRequest()
	req.Op, req.File, req.Offset, req.Data = op, h.name, off, buf
	req.Rank, req.PID, req.FD = h.rank, h.pid, h.fd
	req.Untraced = h.untraced
	req.OnComplete = done
	return h.mw.pipe.Submit(req)
}

// WriteAtSync writes and runs the engine to completion (single-threaded
// convenience).
func (h *FileHandle) WriteAtSync(data []byte, off int64) (float64, error) {
	var end float64
	if err := h.WriteAt(data, off, func(t float64) { end = t }); err != nil {
		return 0, err
	}
	h.mw.Cluster.Eng.Run()
	return end, nil
}

// ReadAtSync reads and runs the engine to completion.
func (h *FileHandle) ReadAtSync(buf []byte, off int64) (float64, error) {
	var end float64
	if err := h.ReadAt(buf, off, func(t float64) { end = t }); err != nil {
		return 0, err
	}
	h.mw.Cluster.Eng.Run()
	return end, nil
}

// Close is currently a metadata no-op, present for API fidelity.
func (h *FileHandle) Close() error { return nil }
