// Package replay re-issues an I/O trace against the simulated file system
// through the middleware, the way the paper replays its LANL, LU and
// Cholesky traces: every MPI rank runs as an independent client issuing
// its requests in trace order, each request blocking until its slowest
// sub-request completes (synchronous MPI-IO semantics). All ranks start
// together; the aggregate bandwidth is total bytes moved over the virtual
// makespan.
package replay

import (
	"fmt"
	"math/rand"

	"mhafs/internal/iopath"
	"mhafs/internal/metrics"
	"mhafs/internal/mpiio"
	"mhafs/internal/pattern"
	"mhafs/internal/server"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// Result summarizes one replay.
type Result struct {
	Ops        int
	Makespan   float64 // seconds of virtual time
	ReadBytes  int64
	WriteBytes int64
	PerServer  []server.Stats // activity during the replay interval

	// Latencies holds every request's issue-to-completion time in virtual
	// seconds, in completion order.
	Latencies []float64
}

// TotalBytes returns bytes moved in both directions.
func (r Result) TotalBytes() int64 { return r.ReadBytes + r.WriteBytes }

// Bandwidth returns the aggregate bandwidth in MB/s.
func (r Result) Bandwidth() float64 { return metrics.MBps(r.TotalBytes(), r.Makespan) }

// ReadBandwidth returns the read-side bandwidth in MB/s (against the full
// makespan).
func (r Result) ReadBandwidth() float64 { return metrics.MBps(r.ReadBytes, r.Makespan) }

// WriteBandwidth returns the write-side bandwidth in MB/s.
func (r Result) WriteBandwidth() float64 { return metrics.MBps(r.WriteBytes, r.Makespan) }

// LatencySummary condenses the per-request latency distribution.
func (r Result) LatencySummary() metrics.LatencySummary {
	return metrics.Summarize(r.Latencies)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("ops=%d makespan=%.6fs readB=%d writeB=%d bw=%.2fMB/s p99=%.6fs",
		r.Ops, r.Makespan, r.ReadBytes, r.WriteBytes, r.Bandwidth(),
		metrics.Percentile(r.Latencies, 0.99))
}

// Mode selects how ranks pace each other during a replay.
type Mode int

const (
	// Independent: each rank issues its records back to back; ranks never
	// wait for one another. The default, matching I/O-bound replay tools.
	Independent Mode = iota
	// LockStep: ranks synchronize at every concurrency-epoch boundary,
	// like a bulk-synchronous application with barriers between I/O
	// phases. No rank enters epoch e+1 until every rank finished epoch e.
	LockStep
	// Timed: each record is issued no earlier than its trace time stamp
	// (relative to the trace start), preserving the application's compute
	// phases between I/O bursts. Requests still wait for the rank's
	// previous request (synchronous I/O).
	Timed
)

// Options tunes a replay.
type Options struct {
	Mode Mode
	// EpochWindow groups records into epochs for LockStep mode (seconds
	// of trace time); 0 uses the pattern analyzer's default.
	EpochWindow float64
}

// Run replays the trace through the middleware with default options. Each
// rank's records are issued sequentially in time order; distinct ranks
// proceed concurrently (in virtual time). Write payloads are
// deterministic pseudo-random bytes.
func Run(mw *mpiio.Middleware, tr trace.Trace) (Result, error) {
	return RunWith(mw, tr, Options{})
}

// RunWith replays the trace with explicit options.
func RunWith(mw *mpiio.Middleware, tr trace.Trace, opts Options) (Result, error) {
	p, err := Start(mw, tr, opts)
	if err != nil {
		return Result{}, err
	}
	mw.Cluster.Eng.Run()
	return p.Finish()
}

// recName names the replay's recorder interceptor stage.
const recName = "replay/recorder"

// Pending is a started replay: every rank client is scheduled on the
// middleware's engine, but the engine has not been driven and no result
// exists yet. The Start/Finish split lets a caller owning several
// clusters — the XL tier's sharded server groups — start one replay per
// group, drive all the engines together (sim.RunSharded), and then
// collect each group's result.
type Pending struct {
	mw  *mpiio.Middleware
	tr  trace.Trace
	rec *iopath.Recorder

	base    float64
	before  []server.Stats
	res     Result
	runErrs []error
}

// Start validates and schedules the replay without driving the engine.
// The caller must run the engine to completion before calling Finish.
func Start(mw *mpiio.Middleware, tr trace.Trace, opts Options) (*Pending, error) {
	if mw == nil {
		return nil, fmt.Errorf("replay: nil middleware")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	p := &Pending{mw: mw, tr: tr}
	if len(tr) == 0 {
		return p, nil
	}

	eng := mw.Cluster.Eng
	p.base = eng.Now()
	p.before = mw.Cluster.ServerStats()

	// Latencies and the makespan come from the pipeline's own completion
	// records: a recorder interceptor observes every request end to end,
	// instead of the replay loop scraping times around each callback.
	p.rec = iopath.NewRecorder()
	if err := mw.Intercept(recName, p.rec); err != nil {
		return nil, err
	}

	// Split records per rank, preserving time order within a rank.
	sorted := tr.Clone()
	sorted.SortByTime()
	perRank := make(map[int]trace.Trace)
	var maxRead int64
	for _, r := range sorted {
		perRank[r.Rank] = append(perRank[r.Rank], r)
		if r.Op == trace.OpRead && r.Size > maxRead {
			maxRead = r.Size
		}
	}
	ranks := tr.Ranks() // deterministic launch order

	// No replay reads back the bytes it reads, so every read of every
	// rank lands in one buffer sized to the largest read. Concurrent
	// reads overwrite each other's landed bytes, which nothing observes;
	// the virtual-time charges depend on sizes alone.
	payload := sharedPayload(tr.MaxSize())
	readBuf := make([]byte, maxRead)

	// LockStep: compute each record's epoch and insert barriers at epoch
	// boundaries. epochBarriers[e] fires when every record of epoch e has
	// completed; ranks block on it before issuing epoch e+1.
	var epochOf map[recordKey]int
	var epochBarriers []*epochGate
	if opts.Mode == LockStep {
		window := opts.EpochWindow
		if window <= 0 {
			window = pattern.DefaultEpochWindow
		}
		epochOf = make(map[recordKey]int, len(tr))
		epochs := pattern.Epochs(tr, window)
		epochBarriers = make([]*epochGate, len(epochs))
		for e, ep := range epochs {
			epochBarriers[e] = newEpochGate(len(ep))
			for _, r := range ep {
				epochOf[keyOf(r)] = e
			}
		}
	}

	t0 := sorted[0].Time

	for _, rank := range ranks {
		records := perRank[rank]
		// A rank issues sequentially — at most one record in flight — so
		// one mutable cursor replaces per-op index captures and the whole
		// client is a fixed rankClient: its drive methods are bound to
		// function values once here, and the loop allocates nothing per
		// record (the methods are pinned in HotPathFunctions; allocheck
		// holds them to that).
		c := &rankClient{
			p:        p,
			eng:      eng,
			records:  records,
			mode:     opts.Mode,
			barriers: epochBarriers,
			handles:  make(map[string]*mpiio.FileHandle),
			payload:  payload,
			readBuf:  readBuf,
			t0:       t0,
		}
		if opts.Mode == LockStep {
			// Resolve each record's epoch here, once, so completions index
			// a slice instead of hashing a map key per op.
			c.epochIdx = make([]int, len(records))
			for i, r := range records {
				c.epochIdx[i] = epochOf[keyOf(r)]
			}
		}
		c.issueFn = c.issue
		c.doneFn = c.done
		c.timedFn = c.issueTimed
		// All ranks start at the same virtual instant.
		eng.Schedule(0, c.issueFn)
	}
	return p, nil
}

// rankClient replays one rank's records sequentially: issue the next
// record, wait for its completion, repeat (optionally gated by epoch
// barriers or the trace's time stamps). The drive methods are bound to
// the *Fn fields once at Start, so the per-record loop passes existing
// function values instead of allocating closures or method values.
type rankClient struct {
	p        *Pending
	eng      *sim.Engine
	records  trace.Trace
	mode     Mode
	epochIdx []int        // LockStep: each record's epoch, precomputed
	barriers []*epochGate // LockStep: shared epoch gates
	handles  map[string]*mpiio.FileHandle
	lastFile string
	lastH    *mpiio.FileHandle
	next     int // index of the next record to issue
	payload  []byte
	readBuf  []byte
	t0       float64 // trace start time (Timed mode origin)

	timed   trace.Record      // the one deferred record of Timed mode
	issueFn func()            // c.issue, bound once
	doneFn  func(end float64) // c.done, bound once
	timedFn func()            // c.issueTimed, bound once
}

// done is the rank's completion callback: account the op and drive the
// next record (through the epoch barrier in LockStep mode).
func (c *rankClient) done(end float64) {
	c.p.res.Ops++
	if c.mode == LockStep {
		// next already points past the record that just completed.
		c.barriers[c.epochIdx[c.next-1]].complete(c.issueFn)
		return
	}
	c.issue()
}

// issue starts the rank's next record, honoring Timed mode's earliest
// issue points.
func (c *rankClient) issue() {
	if c.next >= len(c.records) {
		return
	}
	rec := c.records[c.next]
	c.next++
	if c.mode == Timed {
		// Honor the record's trace time as its earliest issue point
		// (relative to the replay start). At most one record per rank is
		// ever deferred — the rank is sequential — so the record parks in
		// c.timed and the pre-bound timedFn re-issues it.
		due := c.p.base + (rec.Time - c.t0)
		if now := c.eng.Now(); due > now {
			c.timed = rec
			c.eng.Schedule(due-now, c.timedFn)
			return
		}
	}
	c.issueNow(rec)
}

// issueTimed resumes the record parked by a Timed-mode deferral.
func (c *rankClient) issueTimed() { c.issueNow(c.timed) }

// issueNow submits one record through the middleware.
func (c *rankClient) issueNow(rec trace.Record) {
	h := c.lastH
	if rec.File != c.lastFile || h == nil {
		var ok bool
		h, ok = c.handles[rec.File]
		if !ok {
			var err error
			h, err = c.p.mw.Open(rec.File, rec.Rank)
			if err != nil {
				c.p.runErrs = append(c.p.runErrs, err)
				return
			}
			c.handles[rec.File] = h
		}
		c.lastFile, c.lastH = rec.File, h
	}
	var err error
	if rec.Op == trace.OpWrite {
		c.p.res.WriteBytes += rec.Size
		err = h.WriteAt(c.payload[:rec.Size], rec.Offset, c.doneFn)
	} else {
		c.p.res.ReadBytes += rec.Size
		err = h.ReadAt(c.readBuf[:rec.Size], rec.Offset, c.doneFn)
	}
	if err != nil {
		c.p.runErrs = append(c.p.runErrs, err)
	}
}

// Finish validates the drained replay and assembles its result. The
// caller must have run the engine until no replay events remain.
func (p *Pending) Finish() (Result, error) {
	tr := p.tr
	if len(tr) == 0 {
		return Result{}, nil
	}
	defer p.mw.Uninstall(recName)
	res := p.res
	if len(p.runErrs) > 0 {
		return Result{}, fmt.Errorf("replay: %d errors, first: %w", len(p.runErrs), p.runErrs[0])
	}
	if res.Ops != len(tr) {
		return Result{}, fmt.Errorf("replay: completed %d of %d operations", res.Ops, len(tr))
	}
	if p.rec.Len() != len(tr) {
		return Result{}, fmt.Errorf("replay: pipeline recorded %d of %d requests", p.rec.Len(), len(tr))
	}
	latest := p.base
	failed := 0
	var firstErr error
	for _, c := range p.rec.Records() {
		res.Latencies = append(res.Latencies, c.Latency())
		if c.Complete > latest {
			latest = c.Complete
		}
		if c.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = c.Err
			}
		}
	}
	if failed > 0 {
		// Resilience exhausted on some requests: the run completed (no
		// hang) but the application saw errors, which no scenario the
		// bench ships is allowed to produce.
		return Result{}, fmt.Errorf("replay: %d of %d requests failed, first: %w", failed, len(tr), firstErr)
	}
	res.Makespan = latest - p.base
	res.PerServer = metrics.DiffStats(p.before, p.mw.Cluster.ServerStats())
	return res, nil
}

// recordKey identifies a trace record within a replay.
type recordKey struct {
	rank   int
	file   string
	offset int64
	time   float64
}

func keyOf(r trace.Record) recordKey {
	return recordKey{r.Rank, r.File, r.Offset, r.Time}
}

// epochGate releases its waiters once all n records of the epoch complete.
type epochGate struct {
	remaining int
	waiters   []func()
}

func newEpochGate(n int) *epochGate {
	return &epochGate{remaining: n, waiters: make([]func(), 0, n)}
}

// complete marks one record done and registers the continuation to run
// when the whole epoch has drained. The continuation runs immediately if
// this was the last record.
func (g *epochGate) complete(cont func()) {
	g.remaining--
	g.waiters = append(g.waiters, cont)
	if g.remaining == 0 {
		ws := g.waiters
		g.waiters = nil
		for _, w := range ws {
			w()
		}
	}
}

// sharedPayload builds one deterministic buffer reused by every write.
func sharedPayload(n int64) []byte {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(buf)
	return buf
}
