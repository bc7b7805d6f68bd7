// Scheduler tests drive the real middleware → adaptive → stripe →
// server path on a dataless paper-shaped cluster, loading chosen
// servers directly to pose the congestion the policies react to.
package adaptive_test

import (
	"testing"

	"mhafs/internal/adaptive"
	"mhafs/internal/mpiio"
	"mhafs/internal/pfs"
	"mhafs/internal/server"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

// setup builds a dataless cluster with the adaptive stage installed
// under the given policy and a registry on its counters.
func setup(t *testing.T, pol adaptive.Policy) (*mpiio.Middleware, *pfs.Cluster, *telemetry.Registry) {
	t.Helper()
	cfg := pfs.DefaultConfig()
	cfg.Dataless = true
	c, err := pfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mw := mpiio.New(c)
	if err := mw.EnableAdaptive(mpiio.AdaptiveOptions{Policy: pol}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	mw.Adaptive().SetTelemetry(reg)
	return mw, c, reg
}

// firstServer resolves the server the file's first stripe unit lands on
// — the one a 4 KB write at offset 0 addresses.
func firstServer(t *testing.T, mw *mpiio.Middleware, c *pfs.Cluster, name string) *server.Server {
	t.Helper()
	f, err := mw.ResolveFile(name)
	if err != nil {
		t.Fatal(err)
	}
	split := f.Layout.AppendSplit(nil, 0, 4096)
	if len(split) != 1 {
		t.Fatalf("4KB at offset 0 split into %d pieces, want 1", len(split))
	}
	return c.ServerForFile(f, split[0].Server)
}

// rerouteOnly trusts the very first observation (α = 1, one sample) and
// never speculates, so a single write decides purely on the ratio gate.
func rerouteOnly() adaptive.Policy {
	return adaptive.Policy{
		Alpha:            1,
		RerouteThreshold: 4,
		MinSamples:       1,
		MinEstimate:      1e-6,
		MaxReroutes:      2,
	}
}

// TestRerouteCrossesThreshold: one server holds a deep queue while its
// class sits idle — the ratio gate clears, the write is remapped onto
// the fallback, and it completes without waiting behind the straggler.
func TestRerouteCrossesThreshold(t *testing.T) {
	mw, c, reg := setup(t, rerouteOnly())
	h, err := mw.Open("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := firstServer(t, mw, c, "f")
	var preloadEnd float64
	preload(srv, func(end float64) { preloadEnd = end })

	var end float64
	if err := h.WriteAt(make([]byte, 4096), 0, func(e float64) { end = e }); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()

	if got := reg.Counter(adaptive.MetricReroutes).Value(); got != 1 {
		t.Errorf("reroutes = %v, want 1", got)
	}
	if !mw.Adaptive().Failover().HasMapping("f") {
		t.Error("reroute published no relocation mapping for f")
	}
	if got := srv.Stats().Writes; got != 1 {
		t.Errorf("straggler writes = %d, want 1 (the preload only)", got)
	}
	if end <= 0 || end >= preloadEnd {
		t.Errorf("rerouted write finished at %v, want before the straggler queue drains at %v",
			end, preloadEnd)
	}
}

// TestRerouteStaysUnderThreshold: the same depth of queue on every
// class server holds the ratio at exactly 1 — no straggler, the write
// waits its turn on its original server.
func TestRerouteStaysUnderThreshold(t *testing.T) {
	mw, c, reg := setup(t, rerouteOnly())
	h, err := mw.Open("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := firstServer(t, mw, c, "f")
	for _, s := range c.Servers() {
		preload(s, nil)
	}

	if err := h.WriteAt(make([]byte, 4096), 0, nil); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()

	if got := reg.Counter(adaptive.MetricReroutes).Value(); got != 0 {
		t.Errorf("reroutes = %v, want 0 under uniform load", got)
	}
	if mw.Adaptive().Failover().HasMapping("f") {
		t.Error("uniform load published a relocation mapping")
	}
	if got := srv.Stats().Writes; got != 2 {
		t.Errorf("target writes = %d, want 2 (preload + the write itself)", got)
	}
}

// TestReadsPassThrough: reads are never rerouted — their bytes live
// where they were written — however lopsided the estimates.
func TestReadsPassThrough(t *testing.T) {
	mw, c, reg := setup(t, rerouteOnly())
	h, err := mw.Open("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := firstServer(t, mw, c, "f")
	preload(srv, nil)

	if err := h.ReadAt(make([]byte, 4096), 0, nil); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()

	if got := reg.Counter(adaptive.MetricReroutes).Value(); got != 0 {
		t.Errorf("reroutes = %v, want 0 for a read", got)
	}
	if got := srv.Stats().Reads; got != 1 {
		t.Errorf("straggler reads = %d, want 1 (the read stayed put)", got)
	}
}

// TestSpeculationDuplicateWins arbitrates a full race by hand: the
// primary leg queues behind a deep backlog, the deadline launches the
// duplicate on the idle fallback, the duplicate finishes first, the
// primary is withdrawn before service (its commit never lands on the
// straggler), and the relocation mapping is published.
func TestSpeculationDuplicateWins(t *testing.T) {
	pol := adaptive.Policy{
		Alpha:            0.25,
		RerouteThreshold: 4,
		MinSamples:       1 << 30, // rerouting never trusts the estimator
		MinEstimate:      2e-3,
		SpecWait:         10e-3,
		SpecThreshold:    2,
		MaxReroutes:      1,
	}
	mw, c, reg := setup(t, pol)
	h, err := mw.Open("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := firstServer(t, mw, c, "f")
	var preloadEnd float64
	preload(srv, func(end float64) { preloadEnd = end })
	if b := srv.Backlog(); b <= pol.SpecWait {
		t.Fatalf("posed backlog %v does not clear the speculation deadline %v", b, pol.SpecWait)
	}

	var end float64
	if err := h.WriteAt(make([]byte, 4096), 0, func(e float64) { end = e }); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()

	for metric, want := range map[string]float64{
		adaptive.MetricSpeculations:  1,
		adaptive.MetricSpecWins:      1,
		adaptive.MetricSpecCancelled: 1,
	} {
		if got := reg.Counter(metric).Value(); got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	if !mw.Adaptive().Failover().HasMapping("f") {
		t.Error("winning duplicate published no relocation mapping")
	}
	if got := srv.Stats().Writes; got != 1 {
		t.Errorf("straggler writes = %d, want 1 (the losing primary was withdrawn)", got)
	}
	if end <= 0 || end >= preloadEnd {
		t.Errorf("raced write finished at %v, want before the straggler queue drains at %v",
			end, preloadEnd)
	}
}

// preloadDone adapts a completion func to server.Done; a nil func ignores
// the completion.
type preloadDone func(end float64)

func (f preloadDone) IODone(end float64, _ error) {
	if f != nil {
		f(end)
	}
}

// preload queues an 8 MB dataless write on srv ahead of the test traffic.
func preload(srv *server.Server, done func(end float64)) {
	srv.Submit(server.Sub{Op: trace.OpWrite, Bytes: 8 * units.MB, Done: preloadDone(done)})
}
