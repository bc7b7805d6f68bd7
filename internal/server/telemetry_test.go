package server

import (
	"math"
	"testing"

	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

func TestServerTelemetry(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)

	submit(s, trace.OpWrite, 0, make([]byte, 1000), nil)
	submit(s, trace.OpRead, 0, make([]byte, 400), nil)
	eng.Run()

	srv := telemetry.L("server", "h0")
	if got := reg.Counter(MetricOps, srv, telemetry.L("op", "write")).Value(); got != 1 {
		t.Errorf("write ops = %v, want 1", got)
	}
	if got := reg.Counter(MetricOps, srv, telemetry.L("op", "read")).Value(); got != 1 {
		t.Errorf("read ops = %v, want 1", got)
	}
	if got := reg.Counter(MetricBytes, srv, telemetry.L("op", "write")).Value(); got != 1000 {
		t.Errorf("write bytes = %v, want 1000", got)
	}
	// Accumulated busy seconds must equal the resource's own accounting.
	busy := reg.Counter(MetricBusy, srv).Value()
	if want := s.Stats().BusyTime; math.Abs(busy-want) > 1e-12 {
		t.Errorf("busy = %v, want %v", busy, want)
	}
	// Both ops were submitted at t=0: the write starts immediately (wait 0)
	// and the read waits out the write's full service time.
	qw := reg.Histogram(MetricQueueWait, telemetry.LatencyBuckets(), srv)
	if qw.Count() != 2 {
		t.Fatalf("queue-wait samples = %d, want 2", qw.Count())
	}
	if want := s.ServiceTime(trace.OpWrite, 1000); math.Abs(qw.Sum()-want) > 1e-12 {
		t.Errorf("queue-wait sum = %v, want %v (the write's service time)", qw.Sum(), want)
	}
	sv := reg.Histogram(MetricService, telemetry.LatencyBuckets(), srv)
	if sv.Count() != 2 || math.Abs(sv.Sum()-busy) > 1e-12 {
		t.Errorf("service sum = %v over %d, want busy %v over 2", sv.Sum(), sv.Count(), busy)
	}

	// Detaching stops emission without disturbing recorded series.
	s.SetTelemetry(nil)
	submit(s, trace.OpWrite, 0, make([]byte, 100), nil)
	eng.Run()
	if got := reg.Counter(MetricOps, srv, telemetry.L("op", "write")).Value(); got != 1 {
		t.Errorf("detached server still emitted: write ops = %v", got)
	}
}
