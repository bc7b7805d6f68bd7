package iopath

import (
	"errors"
	"fmt"

	"mhafs/internal/fault"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/sim"
	"mhafs/internal/stripe"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// RetryPolicy bounds the client's recovery behaviour: how many attempts a
// sub-request gets, how the wait between attempts grows, and how long one
// attempt may remain outstanding. All times are virtual seconds.
type RetryPolicy struct {
	MaxAttempts int     // total attempts per sub-request (first try included)
	Backoff     float64 // wait before the second attempt; doubles per retry
	BackoffCap  float64 // ceiling on the doubling
	Timeout     float64 // per-attempt deadline, 0 disables the timer
}

// DefaultRetryPolicy is sized so the cumulative backoff outlasts the
// bench outage scenario (250 ms): ~64 ms of doubling then 50 ms per
// retry, about one virtual second across 24 attempts. The per-attempt
// timeout is generous because the deadline spans FIFO queueing, not just
// service time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 24, Backoff: 500e-6, BackoffCap: 50e-3, Timeout: 2}
}

// Validate checks the policy's invariants.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("iopath: retry policy needs at least one attempt, got %d", p.MaxAttempts)
	}
	if p.Backoff < 0 || p.BackoffCap < 0 || p.Timeout < 0 {
		return fmt.Errorf("iopath: negative retry policy time (backoff %v, cap %v, timeout %v)",
			p.Backoff, p.BackoffCap, p.Timeout)
	}
	if p.BackoffCap > 0 && p.BackoffCap < p.Backoff {
		return fmt.Errorf("iopath: backoff cap %v below base %v", p.BackoffCap, p.Backoff)
	}
	return nil
}

// Delay returns the wait before attempt k+1 after k failed attempts:
// Backoff·2^(k-1), capped.
func (p RetryPolicy) Delay(k int) float64 {
	if k < 1 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < k; i++ {
		d *= 2
		if p.BackoffCap > 0 && d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if p.BackoffCap > 0 && d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// ErrAttemptTimeout marks an attempt abandoned by the per-attempt
// deadline. It is retryable.
var ErrAttemptTimeout = errors.New("iopath: attempt timed out")

// retryable extends the injector's error taxonomy with the client-side
// timeout.
func retryable(err error) bool {
	return fault.Retryable(err) || errors.Is(err, ErrAttemptTimeout)
}

// resilienceMetrics caches the client-side fault telemetry handles shared
// by the retry and failover stages.
type resilienceMetrics struct {
	readRetries, writeRetries *telemetry.Counter
	backoff                   *telemetry.Counter
	timeouts                  *telemetry.Counter
}

func newResilienceMetrics(reg *telemetry.Registry) *resilienceMetrics {
	return &resilienceMetrics{
		readRetries:  reg.Counter(fault.MetricRetries, telemetry.L("op", "read")),
		writeRetries: reg.Counter(fault.MetricRetries, telemetry.L("op", "write")),
		backoff:      reg.Counter(fault.MetricBackoffSeconds),
		timeouts:     reg.Counter(fault.MetricTimeouts),
	}
}

func (m *resilienceMetrics) retry(op trace.Op, delay float64) {
	if m == nil {
		return
	}
	if op == trace.OpWrite {
		m.writeRetries.Inc()
	} else {
		m.readRetries.Inc()
	}
	m.backoff.Add(delay)
}

// RetryServerStage is the fault-aware terminal stage: it submits each
// server-bound sub-request like ServerStage, but through a per-attempt
// server.Done, and retries retryable failures with deterministic sim-time
// exponential backoff, under an optional per-attempt timeout. It replaces
// ServerStage when resilience is enabled.
type RetryServerStage struct {
	Eng    *sim.Engine
	Policy RetryPolicy

	tel *resilienceMetrics
}

// NewRetryServerStage validates the policy.
func NewRetryServerStage(eng *sim.Engine, p RetryPolicy) (*RetryServerStage, error) {
	if eng == nil {
		return nil, fmt.Errorf("iopath: retry stage needs an engine")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &RetryServerStage{Eng: eng, Policy: p}, nil
}

// SetTelemetry installs (or, with nil, removes) a registry for the
// stage's retry/backoff/timeout series. Series are registered eagerly so
// a fault-free run still exports them at zero.
func (s *RetryServerStage) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	s.tel = newResilienceMetrics(reg)
}

// Handle implements Stage; the chain ends here.
//
// Retry attempts allocate (per-attempt completion descriptors, timers) by
// design: the retry stage is wired only in fault-injection scenarios,
// outside the XL tier's 0-alloc contract.
//
//mhavet:coldpath fault-injection retry path
func (s *RetryServerStage) Handle(req *Request, next Handler) error {
	if req.Binding == nil {
		return fmt.Errorf("iopath: request for %q reached the retry server stage without a binding", req.File)
	}
	s.attempt(req, 1)
	return nil
}

// attempt runs try number k (1-based) of the sub-request.
func (s *RetryServerStage) attempt(req *Request, k int) {
	a := &retryAttempt{stage: s, req: req, k: k}
	if s.Policy.Timeout > 0 {
		a.timer = s.Eng.AfterFunc(s.Policy.Timeout, a.timeout)
	}
	// Speculation-race legs submit withdrawably; a cancelled attempt
	// settles with ErrCancelled, which is not retryable, so the leg
	// finishes instead of re-issuing work the race already discarded.
	req.submit(a)
}

// retryAttempt is one try of a sub-request: the server's server.Done for
// that try, racing the optional per-attempt timer. settled flips when the
// attempt resolves — by completion or by the timeout firing first. A
// completion arriving after the timeout is ignored: the retry owns the
// request now. (A late write still committed its bytes; the retry
// re-commits the same bytes, which is idempotent. A late read's scatter
// is skipped.)
type retryAttempt struct {
	stage   *RetryServerStage
	req     *Request
	k       int
	timer   *sim.Timer
	settled bool
}

// IODone implements server.Done.
//
//mhavet:coldpath fault-injection retry path
func (a *retryAttempt) IODone(end float64, err error) {
	if a.settled {
		return
	}
	a.settled = true
	if a.timer != nil {
		a.timer.Stop()
	}
	a.stage.settle(a.req, a.k, end, err)
}

// timeout abandons the attempt at its deadline.
func (a *retryAttempt) timeout() {
	if a.settled {
		return
	}
	a.settled = true
	s := a.stage
	if s.tel != nil {
		s.tel.timeouts.Inc()
	}
	a.req.pipe.Exclusive(func() {
		s.settle(a.req, a.k, s.Eng.Now(), ErrAttemptTimeout)
	})
}

// settle resolves attempt k: success and non-retryable errors complete
// the request through IODone (a read scatters its bytes on success);
// retryable errors schedule the next attempt after backoff.
// Callers hold the submission lock (server completions run from engine
// events the pipeline already serializes; the timeout path re-enters via
// Exclusive).
func (s *RetryServerStage) settle(req *Request, k int, end float64, err error) {
	if err == nil || !retryable(err) || k >= s.Policy.MaxAttempts {
		req.IODone(end, err)
		return
	}
	delay := s.Policy.Delay(k)
	s.tel.retry(req.Op, delay)
	s.Eng.Schedule(delay, func() {
		req.pipe.Exclusive(func() { s.attempt(req, k+1) })
	})
}

// Resilience is the degraded-mode failover stage, registered between
// redirect and stripe. At submission it checks which servers the extent
// would touch; if one is down it remaps writes onto surviving servers
// through the failover tables (MHA degrades toward a HARL/DEF-shaped
// layout) and holds reads back until the server recovers. Extents already
// remapped by an earlier outage are translated to their fallback file on
// every pass, so later reads find the failed-over bytes.
type Resilience struct {
	Eng      *sim.Engine
	Injector *fault.Injector
	Cluster  *pfs.Cluster
	Files    FileResolver
	Failover *reorder.Failover
	Policy   RetryPolicy

	tel       *resilienceMetrics
	failovers *telemetry.Counter
	degraded  *telemetry.Counter
}

// NewResilience wires the failover stage.
func NewResilience(eng *sim.Engine, in *fault.Injector, c *pfs.Cluster, files FileResolver, fo *reorder.Failover, p RetryPolicy) (*Resilience, error) {
	switch {
	case eng == nil:
		return nil, fmt.Errorf("iopath: resilience stage needs an engine")
	case in == nil:
		return nil, fmt.Errorf("iopath: resilience stage needs an injector")
	case c == nil:
		return nil, fmt.Errorf("iopath: resilience stage needs a cluster")
	case files == nil:
		return nil, fmt.Errorf("iopath: resilience stage needs a file resolver")
	case fo == nil:
		return nil, fmt.Errorf("iopath: resilience stage needs a failover layer")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Resilience{Eng: eng, Injector: in, Cluster: c, Files: files, Failover: fo, Policy: p}, nil
}

// SetTelemetry installs (or, with nil, removes) a registry for the
// stage's failover series, registered eagerly.
func (rs *Resilience) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		rs.tel, rs.failovers, rs.degraded = nil, nil, nil
		return
	}
	rs.tel = newResilienceMetrics(reg)
	rs.failovers = reg.Counter(fault.MetricFailovers)
	rs.degraded = reg.Counter(fault.MetricDegraded)
}

// Handle translates the extent through the failover tables, fans out over
// the resulting pieces, and routes each piece around down servers.
//
// Failover handling allocates (piece slices, remap records, DRT/RST
// persistence) by design: the resilience stage is wired only in
// fault-injection scenarios, outside the XL tier's 0-alloc contract.
//
//mhavet:coldpath fault-injection failover path
func (rs *Resilience) Handle(req *Request, next Handler) error {
	targets := rs.Failover.Translate(req.File, req.Offset, req.Size())
	if len(targets) == 1 && !targets[0].Mapped {
		return rs.handlePiece(req, next, 1)
	}
	children, err := req.SplitTargets(targets, rs.Files)
	if err != nil {
		return err
	}
	for _, child := range children {
		if err := rs.handlePiece(child, next, 1); err != nil {
			return err
		}
	}
	return nil
}

// downServer finds the first down server the extent's stripe fan-out
// would touch (in stripe order — deterministic), or ok=false.
func (rs *Resilience) downServer(f *pfs.File, off, n int64) (name string, ref stripe.ServerRef, phys int, ok bool) {
	now := rs.Eng.Now()
	for _, sub := range f.Layout.Split(off, n) {
		srv := rs.Cluster.ServerForFile(f, sub.Server)
		if rs.Injector.Down(srv.Name, now) {
			return srv.Name, sub.Server, rs.Cluster.PhysicalIndex(f, sub.Server), true
		}
	}
	return "", stripe.ServerRef{}, 0, false
}

// handlePiece routes one piece (attempt is 1-based): forward when every
// target server is up, remap writes around a down server, hold reads back
// with backoff until recovery or the attempt budget runs out.
func (rs *Resilience) handlePiece(req *Request, next Handler, attempt int) error {
	f := req.Target
	if f == nil {
		var err error
		f, err = rs.Files.ResolveFile(req.File)
		if err != nil {
			return err
		}
		req.Target = f
	}
	name, ref, phys, down := rs.downServer(f, req.Offset, req.Size())
	if !down {
		return next(req)
	}
	if attempt == 1 && rs.degraded != nil {
		rs.degraded.Inc()
	}
	if req.Op == trace.OpWrite {
		fb, err := rs.Failover.Remap(f, req.Offset, req.Size(), name, ref.Class, phys)
		if err != nil {
			return err
		}
		if fb != nil {
			if rs.failovers != nil {
				rs.failovers.Inc()
			}
			req.File, req.Target = fb.Name, fb
			// The fallback itself may touch another down server (multi-
			// failure); re-check under the remaining attempt budget.
			return rs.handlePiece(req, next, attempt+1)
		}
		// No layout avoids the down server: fall through and wait for
		// recovery like a read.
	}
	if attempt >= rs.Policy.MaxAttempts {
		req.FinishErr(rs.Eng.Now(), fault.ErrUnavailable)
		return nil
	}
	delay := rs.Policy.Delay(attempt)
	rs.tel.retry(req.Op, delay)
	rs.Eng.Schedule(delay, func() {
		req.pipe.Exclusive(func() {
			// Errors were surfaced synchronously on the first pass; later
			// passes only re-route, so none can occur here.
			_ = rs.handlePiece(req, next, attempt+1)
		})
	})
	return nil
}
