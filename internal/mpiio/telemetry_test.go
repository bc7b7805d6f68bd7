package mpiio

import (
	"bytes"
	"testing"

	"mhafs/internal/fault"
	"mhafs/internal/iopath"
	"mhafs/internal/layout"
	"mhafs/internal/reorder"
	"mhafs/internal/server"
	"mhafs/internal/stripe"
	"mhafs/internal/telemetry"
	"mhafs/internal/units"
)

// TestEnableTelemetryEndToEnd drives redirected I/O through a fully wired
// middleware and checks that every layer emitted into the one registry:
// application meter, stage timer, striping fan-out, per-server series, and
// DRT hit/miss counters.
func TestEnableTelemetryEndToEnd(t *testing.T) {
	c := testCluster(t)
	mw := New(c)
	reg := telemetry.NewRegistry()
	mw.EnableTelemetry(reg)
	h, _ := mw.Open("f", 0)

	data := make([]byte, 128*units.KB)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := h.WriteAtSync(data, 0); err != nil {
		t.Fatal(err)
	}

	// Redirect the first half into a region file; the second half stays.
	plan := layout.Plan{
		Scheme: layout.MHA,
		Regions: []layout.RegionPlan{
			{File: "f.r0", Layout: c.DefaultLayout(), Size: 64 * units.KB},
		},
	}
	plan.Mappings = append(plan.Mappings, regionMapping("f", 0, "f.r0", 0, 64*units.KB))
	placement, err := reorder.Apply(c, plan, reorder.Options{Migrate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer placement.Close()
	mw.SetRedirector(reorder.NewRedirector(placement.DRT, 0))

	// One read in the mapped half (hit), one wholly in the unmapped half
	// (miss).
	buf := make([]byte, 32*units.KB)
	if _, err := h.ReadAtSync(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[:len(buf)]) {
		t.Fatal("redirected read corrupted data")
	}
	if _, err := h.ReadAtSync(buf, 80*units.KB); err != nil {
		t.Fatal(err)
	}

	// Application meter: 1 write + 2 reads, whole request sizes.
	if got := reg.Counter(iopath.MetricRequests, telemetry.L("op", "write")).Value(); got != 1 {
		t.Errorf("writes = %v, want 1", got)
	}
	if got := reg.Counter(iopath.MetricRequests, telemetry.L("op", "read")).Value(); got != 2 {
		t.Errorf("reads = %v, want 2", got)
	}
	sizes := reg.Histogram(iopath.MetricRequestSize, telemetry.SizeBuckets())
	if want := float64(128*units.KB + 2*32*units.KB); sizes.Sum() != want {
		t.Errorf("request size sum = %v, want %v", sizes.Sum(), want)
	}
	lat := reg.Histogram(iopath.MetricRequestLatency, telemetry.LatencyBuckets())
	if lat.Count() != 3 || lat.Sum() <= 0 {
		t.Errorf("latency = %v over %d, want positive over 3", lat.Sum(), lat.Count())
	}

	// Stage timer: the meter interceptor saw the 3 application requests;
	// the server stage saw every striped piece.
	if got := reg.Counter(iopath.MetricStageRequests, telemetry.L("stage", StageMeter)).Value(); got != 3 {
		t.Errorf("meter stage requests = %v, want 3", got)
	}
	srvStage := reg.Counter(iopath.MetricStageRequests, telemetry.L("stage", iopath.StageServer)).Value()
	if srvStage < 3 {
		t.Errorf("server stage requests = %v, want >= 3", srvStage)
	}
	span := reg.Span(iopath.MetricStageSpan, telemetry.L("stage", StageMeter))
	if span.Count() != 3 || span.Total() <= 0 {
		t.Errorf("meter stage span = %v over %d, want positive virtual time over 3",
			span.Total(), span.Count())
	}

	// DRT: two lookups, one hit, one miss, 32 KB mapped + 32 KB identity.
	if got := reg.Counter(reorder.MetricDRTLookups).Value(); got != 2 {
		t.Errorf("DRT lookups = %v, want 2", got)
	}
	if got := reg.Counter(reorder.MetricDRTHits).Value(); got != 1 {
		t.Errorf("DRT hits = %v, want 1", got)
	}
	if got := reg.Counter(reorder.MetricDRTMisses).Value(); got != 1 {
		t.Errorf("DRT misses = %v, want 1", got)
	}
	if got := reg.Counter(reorder.MetricDRTMappedBytes).Value(); got != float64(32*units.KB) {
		t.Errorf("mapped bytes = %v, want %v", got, 32*units.KB)
	}
	if got := reg.Counter(reorder.MetricDRTIdentityBytes).Value(); got != float64(32*units.KB) {
		t.Errorf("identity bytes = %v, want %v", got, 32*units.KB)
	}

	// Striping: the region hit counter distinguishes the region file from
	// the original, and the per-server op counters sum to the sub-request
	// counters.
	if got := reg.Counter(stripe.MetricRegionHits, telemetry.L("region", "f.r0")).Value(); got != 1 {
		t.Errorf("region hits f.r0 = %v, want 1", got)
	}
	if got := reg.Counter(stripe.MetricRegionHits, telemetry.L("region", "f")).Value(); got != 2 {
		t.Errorf("region hits f = %v, want 2 (initial write + unmapped read)", got)
	}
	var serverOps, subReqs float64
	for _, s := range c.Servers() {
		for _, op := range []string{"read", "write"} {
			serverOps += reg.Counter(server.MetricOps,
				telemetry.L("server", s.Name), telemetry.L("op", op)).Value()
		}
	}
	for _, class := range []stripe.Class{stripe.ClassH, stripe.ClassS} {
		subReqs += reg.Counter(stripe.MetricSubRequests,
			telemetry.L("class", class.String())).Value()
	}
	if serverOps == 0 || serverOps != subReqs {
		t.Errorf("server ops %v != striped sub-requests %v", serverOps, subReqs)
	}

	// Disabling stops every emitter.
	mw.EnableTelemetry(nil)
	before := reg.Len()
	if _, err := h.ReadAtSync(buf, 0); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != before {
		t.Error("disabled telemetry registered new series")
	}
	if got := reg.Counter(iopath.MetricRequests, telemetry.L("op", "read")).Value(); got != 2 {
		t.Errorf("disabled telemetry still counted reads: %v", got)
	}
	if got := reg.Counter(reorder.MetricDRTLookups).Value(); got != 2 {
		t.Errorf("disabled telemetry still counted lookups: %v", got)
	}
}

// TestEnableTelemetrySwitchesRegistry: re-enabling telemetry moves every
// emitter to the new registry, the application meter included.
func TestEnableTelemetrySwitchesRegistry(t *testing.T) {
	c := testCluster(t)
	mw := New(c)
	reg1, reg2 := telemetry.NewRegistry(), telemetry.NewRegistry()
	mw.EnableTelemetry(reg1)
	mw.EnableTelemetry(reg2)
	h, _ := mw.Open("f", 0)
	if _, err := h.WriteAtSync(make([]byte, 32*units.KB), 0); err != nil {
		t.Fatal(err)
	}
	writes := telemetry.L("op", "write")
	if got := reg1.Counter(iopath.MetricRequests, writes).Value(); got != 0 {
		t.Errorf("old registry counted %v writes, want 0", got)
	}
	if got := reg2.Counter(iopath.MetricRequests, writes).Value(); got != 1 {
		t.Errorf("new registry counted %v writes, want 1", got)
	}
}

// TestDisabledTelemetryStopsFaultWindows: EnableTelemetry(nil) also
// detaches the fault injector, whose window events keep firing.
func TestDisabledTelemetryStopsFaultWindows(t *testing.T) {
	c := testCluster(t)
	mw := New(c)
	if err := mw.EnableResilience(ResilienceOptions{Injector: flakyInjector(t, c)}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mw.EnableTelemetry(reg)
	mw.EnableTelemetry(nil)
	h, _ := mw.Open("f", 0)
	data := make([]byte, 64*units.KB)
	for i := 0; i < 400; i++ {
		if _, err := h.WriteAtSync(data, int64(i)*int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(fault.MetricWindows, telemetry.L("kind", "transient")).Value(); got != 0 {
		t.Errorf("disabled telemetry counted %v transient fault windows, want 0", got)
	}
}

// TestTelemetrySnapshotDeterministic runs the same workload twice in fresh
// simulations and requires bit-identical exporter output.
func TestTelemetrySnapshotDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		c := testCluster(t)
		mw := New(c)
		reg := telemetry.NewRegistry()
		mw.EnableTelemetry(reg)
		h, _ := mw.Open("f", 0)
		data := make([]byte, 96*units.KB)
		if _, err := h.WriteAtSync(data, 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 48*units.KB)
		if _, err := h.ReadAtSync(buf, 16*units.KB); err != nil {
			t.Fatal(err)
		}
		var j, p bytes.Buffer
		if err := reg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), p.Bytes()
	}
	j1, p1 := run()
	j2, p2 := run()
	if !bytes.Equal(j1, j2) {
		t.Error("JSON snapshots differ between identical runs")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus expositions differ between identical runs")
	}
	if len(j1) == 0 || len(p1) == 0 {
		t.Error("exporters produced no output")
	}
}
