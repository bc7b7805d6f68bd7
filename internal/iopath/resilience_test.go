package iopath

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"mhafs/internal/device"
	"mhafs/internal/fault"
	"mhafs/internal/netmodel"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/server"
	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Backoff: 1e-3, BackoffCap: 5e-3}
	wants := []float64{0, 1e-3, 2e-3, 4e-3, 5e-3, 5e-3}
	for k, want := range wants {
		if got := p.Delay(k); got != want {
			t.Errorf("Delay(%d) = %v, want %v", k, got, want)
		}
	}
	if err := (RetryPolicy{MaxAttempts: 0}).Validate(); err == nil {
		t.Error("zero attempts accepted")
	}
	if err := (RetryPolicy{MaxAttempts: 1, Backoff: 2, BackoffCap: 1}).Validate(); err == nil {
		t.Error("cap below base accepted")
	}
	if err := DefaultRetryPolicy().Validate(); err != nil {
		t.Error(err)
	}
}

// retryHarness wires a single faulty server behind a pipeline of just the
// retry stage, submitting pre-bound sub-requests.
func retryHarness(t *testing.T, sched fault.Schedule, pol RetryPolicy) (*sim.Engine, *Pipeline, *RetryServerStage, *server.Server, *telemetry.Registry) {
	t.Helper()
	eng := &sim.Engine{}
	srv, err := server.New(eng, "h0", device.DefaultHDD(), netmodel.DefaultGigE())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(in)
	stage, err := NewRetryServerStage(eng, pol)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	stage.SetTelemetry(reg)
	p := NewPipeline(eng)
	if err := p.Set(StageServer, stage); err != nil {
		t.Fatal(err)
	}
	return eng, p, stage, srv, reg
}

// TestRetryAfterTransient pins the recovery timing by hand: the failed
// attempt consumes a full service slot, one backoff, then a clean slot.
func TestRetryAfterTransient(t *testing.T) {
	const n = 4096
	pol := RetryPolicy{MaxAttempts: 4, Backoff: 1e-4, BackoffCap: 1e-3}
	eng, p, _, srv, reg := retryHarness(t, fault.Schedule{Windows: []fault.Window{
		// Covers only the first attempt's service start at t=0.
		{Server: "h0", Kind: fault.Transient, Start: 0, End: 1e-9},
	}}, pol)
	S := srv.ServiceTime(trace.OpWrite, n)
	var end float64
	req := &Request{Op: trace.OpWrite, File: "f", Data: make([]byte, n),
		Binding:    &ServerBinding{Server: srv, Object: "f", Payload: bytes.Repeat([]byte{7}, n)},
		OnComplete: func(e float64) { end = e }}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if want := 2*S + pol.Backoff; end != want {
		t.Errorf("end = %v, want 2·service+backoff = %v", end, want)
	}
	if req.Err != nil {
		t.Errorf("recovered request carries err %v", req.Err)
	}
	if v := reg.Counter(fault.MetricRetries, telemetry.L("op", "write")).Value(); v != 1 {
		t.Errorf("write retries = %v, want 1", v)
	}
	if v := reg.Counter(fault.MetricBackoffSeconds).Value(); v != pol.Backoff {
		t.Errorf("backoff seconds = %v, want %v", v, pol.Backoff)
	}
	// The retry committed the bytes.
	got := make([]byte, n)
	srv.Object("f").ReadAt(got, 0)
	if got[0] != 7 || got[n-1] != 7 {
		t.Error("retried write did not commit")
	}
}

// TestRetryExhaustion: a permanent transient fault burns every attempt;
// the request finishes with the error, at the hand-computed time.
func TestRetryExhaustion(t *testing.T) {
	const n = 4096
	pol := RetryPolicy{MaxAttempts: 3, Backoff: 1e-4, BackoffCap: 1e-3}
	eng, p, _, srv, reg := retryHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Transient, Start: 0, End: math.Inf(1)},
	}}, pol)
	S := srv.ServiceTime(trace.OpRead, n)
	var end float64
	req := &Request{Op: trace.OpRead, File: "f", Data: make([]byte, n),
		Binding:    &ServerBinding{Server: srv, Object: "f", Payload: make([]byte, n)},
		OnComplete: func(e float64) { end = e }}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !errors.Is(req.Err, fault.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", req.Err)
	}
	// Three service slots, two backoffs (1e-4 then 2e-4).
	if want := 3*S + 3e-4; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if v := reg.Counter(fault.MetricRetries, telemetry.L("op", "read")).Value(); v != 2 {
		t.Errorf("read retries = %v, want 2", v)
	}
}

// TestRetryOutageBackoff: refused attempts consume no service time; the
// request lands as soon as the backoff walks past the recovery point.
func TestRetryOutageBackoff(t *testing.T) {
	const n = 4096
	const recovery = 5e-3
	pol := RetryPolicy{MaxAttempts: 10, Backoff: 1e-3, BackoffCap: 4e-3}
	eng, p, _, srv, reg := retryHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Outage, Start: 0, End: recovery},
	}}, pol)
	S := srv.ServiceTime(trace.OpWrite, n)
	var end float64
	req := &Request{Op: trace.OpWrite, File: "f", Data: make([]byte, n),
		Binding:    &ServerBinding{Server: srv, Object: "f", Payload: make([]byte, n)},
		OnComplete: func(e float64) { end = e }}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Refusals at t = 0, 1e-3, 3e-3; the fourth attempt at 7e-3 is past
	// recovery and serves normally.
	if want := 7e-3 + S; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if req.Err != nil {
		t.Errorf("err = %v after recovery", req.Err)
	}
	if v := reg.Counter(fault.MetricRetries, telemetry.L("op", "write")).Value(); v != 3 {
		t.Errorf("retries = %v, want 3", v)
	}
	if v := reg.Counter(fault.MetricBackoffSeconds).Value(); v != 7e-3 {
		t.Errorf("backoff = %v, want 7e-3", v)
	}
}

// TestAttemptTimeout: a deadline shorter than the service time abandons
// the attempt; with the budget exhausted the request errors out at the
// second deadline, and the late server completions are ignored.
func TestAttemptTimeout(t *testing.T) {
	const n = 1 << 20
	pol := RetryPolicy{MaxAttempts: 2, Backoff: 1e-4, Timeout: 2e-3}
	eng, p, _, srv, reg := retryHarness(t, fault.Schedule{}, pol)
	S := srv.ServiceTime(trace.OpWrite, n)
	if S <= pol.Timeout {
		t.Fatalf("test needs service %v > timeout %v", S, pol.Timeout)
	}
	var end float64
	var finishes int
	req := &Request{Op: trace.OpWrite, File: "f", Data: make([]byte, n),
		Binding:    &ServerBinding{Server: srv, Object: "f", Payload: make([]byte, n)},
		OnComplete: func(e float64) { end = e; finishes++ }}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !errors.Is(req.Err, ErrAttemptTimeout) {
		t.Fatalf("err = %v, want ErrAttemptTimeout", req.Err)
	}
	// Deadline 1 at 2e-3, backoff 1e-4, deadline 2 at 4.1e-3 — summed in
	// the engine's accumulation order.
	if want := pol.Timeout + pol.Backoff + pol.Timeout; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if finishes != 1 {
		t.Errorf("request finished %d times", finishes)
	}
	if v := reg.Counter(fault.MetricTimeouts).Value(); v != 2 {
		t.Errorf("timeouts = %v, want 2", v)
	}
}

// --- failover stage ---

// resolver adapts a cluster to the FileResolver the stages expect.
type resolver struct{ c *pfs.Cluster }

func (r resolver) ResolveFile(name string) (*pfs.File, error) {
	if f, ok := r.c.Lookup(name); ok {
		return f, nil
	}
	return nil, fmt.Errorf("no file %q", name)
}

// failoverHarness builds the resilient chain resilience → stripe → retry
// over a default cluster with the given schedule.
func failoverHarness(t *testing.T, sched fault.Schedule, pol RetryPolicy) (*pfs.Cluster, *Pipeline, *reorder.Failover, *telemetry.Registry) {
	t.Helper()
	c, err := pfs.New(pfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(c.Eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(in)
	fo, err := reorder.NewFailover(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })
	res, err := NewResilience(c.Eng, in, c, resolver{c}, fo, pol)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := NewRetryServerStage(c.Eng, pol)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	res.SetTelemetry(reg)
	retry.SetTelemetry(reg)
	p := NewPipeline(c.Eng)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.Set(StageResilience, res))
	must(p.Set(StageStripe, &Striper{Cluster: c, Files: resolver{c}}))
	must(p.Set(StageServer, retry))
	return c, p, fo, reg
}

// TestFailoverWrite: a write touching a down SServer lands on a fallback
// file avoiding it, and a later read of the extent finds the bytes there
// while the outage persists.
func TestFailoverWrite(t *testing.T) {
	c, p, fo, reg := failoverHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "s0", Kind: fault.Outage, Start: 0, End: math.Inf(1)},
	}}, DefaultRetryPolicy())
	// Rotation 0: logical S0 is physical s0.
	f, err := c.CreateWithRotation("f", c.DefaultLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	round := f.Layout.RoundLength()
	payload := make([]byte, round)
	for i := range payload {
		payload[i] = byte(i%251 + 1)
	}
	wreq := &Request{Op: trace.OpWrite, File: "f", Data: payload,
		OnComplete: func(float64) {}}
	if err := p.Submit(wreq); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if wreq.Err != nil {
		t.Fatalf("degraded write failed: %v", wreq.Err)
	}
	fb, ok := c.Lookup("f.fb.s0")
	if !ok {
		t.Fatal("no fallback file created")
	}
	if fb.Layout.N != 1 {
		t.Errorf("fallback layout %v keeps both SServers", fb.Layout)
	}
	for _, ref := range fb.Layout.Servers() {
		if srv := c.ServerForFile(fb, ref); srv.Name == "s0" {
			t.Errorf("fallback still touches the down server via %v", ref)
		}
	}
	if v := reg.Counter(fault.MetricFailovers).Value(); v != 1 {
		t.Errorf("failovers = %v, want 1", v)
	}
	if v := reg.Counter(fault.MetricDegraded).Value(); v != 1 {
		t.Errorf("degraded = %v, want 1", v)
	}

	// Read back through the pipeline: the extent translates to the
	// fallback, never touching s0.
	got := make([]byte, round)
	rreq := &Request{Op: trace.OpRead, File: "f", Data: got,
		OnComplete: func(float64) {}}
	if err := p.Submit(rreq); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if rreq.Err != nil {
		t.Fatalf("read of failed-over extent errored: %v", rreq.Err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("failed-over bytes do not read back")
	}
	if fo.Table().Len() != 1 {
		t.Errorf("failover table has %d mappings, want 1", fo.Table().Len())
	}
}

// TestReadWaitsForRecovery: unmapped data on a down server cannot fail
// over; the read holds back and completes only after the window closes.
func TestReadWaitsForRecovery(t *testing.T) {
	const recovery = 4e-3
	pol := RetryPolicy{MaxAttempts: 10, Backoff: 1e-3, BackoffCap: 4e-3, Timeout: 2}
	c, p, _, reg := failoverHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "s0", Kind: fault.Outage, Start: 0, End: recovery},
	}}, pol)
	f, err := c.CreateWithRotation("f", c.DefaultLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	round := f.Layout.RoundLength()
	payload := bytes.Repeat([]byte{0x5C}, int(round))
	reorder.RawWrite(c, f, 0, payload) // pre-populate offline
	got := make([]byte, round)
	req := &Request{Op: trace.OpRead, File: "f", Data: got,
		OnComplete: func(float64) {}}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if req.Err != nil {
		t.Fatalf("read failed: %v", req.Err)
	}
	if req.Complete <= recovery {
		t.Errorf("read completed at %v, inside the outage [0,%v)", req.Complete, recovery)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("recovered read returned wrong bytes")
	}
	if v := reg.Counter(fault.MetricFailovers).Value(); v != 0 {
		t.Errorf("failovers = %v for a read, want 0", v)
	}
	// Held back at t = 0, 1e-3, 3e-3 (down), released at 7e-3.
	if v := reg.Counter(fault.MetricRetries, telemetry.L("op", "read")).Value(); v != 3 {
		t.Errorf("read retries = %v, want 3", v)
	}
}

// TestReadExhaustsAttempts: a permanent outage with a small attempt
// budget surfaces ErrUnavailable instead of hanging.
func TestReadExhaustsAttempts(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 3, Backoff: 1e-3, BackoffCap: 4e-3, Timeout: 2}
	c, p, _, _ := failoverHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "s0", Kind: fault.Outage, Start: 0, End: math.Inf(1)},
	}}, pol)
	f, err := c.CreateWithRotation("f", c.DefaultLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, f.Layout.RoundLength())
	req := &Request{Op: trace.OpRead, File: "f", Data: got,
		OnComplete: func(float64) {}}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if !errors.Is(req.Err, fault.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", req.Err)
	}
	// Attempts at t = 0, 1e-3, 3e-3, then the budget is gone.
	if req.Complete != 3e-3 {
		t.Errorf("gave up at %v, want 3e-3", req.Complete)
	}
}

// TestHealthyPassThrough: with no covering window the resilient chain
// forwards untouched — no retries, no failovers, no extra latency.
func TestHealthyPassThrough(t *testing.T) {
	c, p, fo, reg := failoverHarness(t, fault.Schedule{Windows: []fault.Window{
		{Server: "s0", Kind: fault.Outage, Start: 100, End: 200},
	}}, DefaultRetryPolicy())
	f, err := c.CreateDefault("f")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, int(f.Layout.RoundLength()))
	req := &Request{Op: trace.OpWrite, File: "f", Data: payload,
		OnComplete: func(float64) {}}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	pipelineEnd := req.Complete

	// The raw cluster path is the no-pipeline baseline.
	c2, err := pfs.New(pfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := c2.CreateDefault("f")
	if err != nil {
		t.Fatal(err)
	}
	rawEnd, err := c2.WriteSync(f2, 0, payload)
	if err != nil {
		t.Fatal(err)
	}
	if pipelineEnd != rawEnd {
		t.Errorf("resilient chain end %v differs from raw path %v", pipelineEnd, rawEnd)
	}
	if req.Err != nil {
		t.Errorf("err = %v", req.Err)
	}
	for _, name := range []string{fault.MetricFailovers, fault.MetricDegraded, fault.MetricTimeouts, fault.MetricBackoffSeconds} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %v on a healthy run", name, v)
		}
	}
	if fo.Table().Len() != 0 {
		t.Errorf("failover table grew on a healthy run")
	}
}
