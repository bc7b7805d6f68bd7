package iopath

import (
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// Telemetry series emitted on the request path.
const (
	// MetricStageSpan aggregates the enter→completion span of each stage:
	// how long requests that entered the stage took to fully complete,
	// measured on the clock the timer was built with.
	MetricStageSpan = "iopath_stage_span_seconds"
	// MetricStageRequests counts requests entering each stage (children
	// included, so redirect/stripe fan-out is visible as stage-over-stage
	// growth).
	MetricStageRequests = "iopath_stage_requests_total"

	// MetricRequests counts application-level requests by operation.
	MetricRequests = "iopath_requests_total"
	// MetricRequestSize is the application-level request size histogram.
	MetricRequestSize = "iopath_request_size_bytes"
	// MetricRequestLatency is the submit-to-completion virtual latency
	// histogram of application-level requests.
	MetricRequestLatency = "iopath_request_latency_seconds"
)

// StageTimer implements Observer, recording per-stage request counts and
// the enter→completion span of each stage into a telemetry registry,
// measured on the injected clock — the simulation engine for
// deterministic virtual-time telemetry.
type StageTimer struct {
	reg   *telemetry.Registry
	clock telemetry.Clock
}

// NewStageTimer creates a stage timer emitting into reg against clock.
func NewStageTimer(reg *telemetry.Registry, clock telemetry.Clock) *StageTimer {
	if reg == nil || clock == nil {
		panic("iopath: stage timer needs a registry and a clock")
	}
	return &StageTimer{reg: reg, clock: clock}
}

// StageEnter records the stage entry and arms the completion span.
//
// Telemetry interception allocates (spans, label sorting, series
// registration) by design: the timer is installed only when profiling
// the implementation, outside the 0-alloc contract.
//
//mhavet:coldpath profiling interceptor, installed on demand
func (t *StageTimer) StageEnter(stage string, req *Request) {
	now := t.clock.Now()
	t.reg.Counter(MetricStageRequests, telemetry.L("stage", stage)).Inc()

	span := t.reg.Span(MetricStageSpan, telemetry.L("stage", stage))
	clock := t.clock
	prev := req.OnComplete
	req.OnComplete = func(end float64) {
		// The completion callback runs at the completing event, so the
		// clock reads the completion instant in the same timebase as the
		// recorded entry (virtual or wall).
		span.Observe(clock.Now() - now)
		if prev != nil {
			prev(end)
		}
	}
}

// Meter is an interceptor stage recording application-level request
// counters and histograms: operations by type, request sizes, and
// submit-to-completion virtual latency. Register it before the redirect
// stage (Middleware.EnableTelemetry does) so it observes whole
// application requests rather than redirected or striped pieces.
type Meter struct {
	reads, writes *telemetry.Counter
	sizes         *telemetry.Histogram
	latency       *telemetry.Histogram
}

// NewMeter creates a meter emitting into reg.
func NewMeter(reg *telemetry.Registry) *Meter {
	return &Meter{
		reads:   reg.Counter(MetricRequests, telemetry.L("op", "read")),
		writes:  reg.Counter(MetricRequests, telemetry.L("op", "write")),
		sizes:   reg.Histogram(MetricRequestSize, telemetry.SizeBuckets()),
		latency: reg.Histogram(MetricRequestLatency, telemetry.LatencyBuckets()),
	}
}

// Handle records the request and wraps its completion to observe latency.
//
//mhavet:coldpath profiling interceptor, installed on demand
func (m *Meter) Handle(req *Request, next Handler) error {
	if req.Op == trace.OpWrite {
		m.writes.Inc()
	} else {
		m.reads.Inc()
	}
	m.sizes.Observe(float64(req.Size()))
	start := req.Submit
	lat := m.latency
	prev := req.OnComplete
	req.OnComplete = func(end float64) {
		lat.Observe(end - start)
		if prev != nil {
			prev(end)
		}
	}
	return next(req)
}
