package replay

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mhafs/internal/fault"
	"mhafs/internal/layout"
	"mhafs/internal/mpiio"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/stripe"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

func testMW(t *testing.T, h, s int) *mpiio.Middleware {
	t.Helper()
	cfg := pfs.DefaultConfig()
	cfg.HServers, cfg.SServers = h, s
	cfg.MDSLookup = 0 // keep hand-computed timings exact
	c, err := pfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mpiio.New(c)
}

func TestRunEmptyTrace(t *testing.T) {
	mw := testMW(t, 2, 2)
	res, err := Run(mw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 || res.Makespan != 0 {
		t.Errorf("empty replay = %+v", res)
	}
}

func TestRunNilMiddleware(t *testing.T) {
	if _, err := Run(nil, nil); err == nil {
		t.Error("nil middleware accepted")
	}
}

func TestRunInvalidTrace(t *testing.T) {
	mw := testMW(t, 2, 2)
	bad := trace.Trace{{File: "f", Size: 0}}
	if _, err := Run(mw, bad); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestRunCountsOpsAndBytes(t *testing.T) {
	mw := testMW(t, 2, 2)
	tr := trace.Trace{
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 0, Size: 64 * units.KB, Time: 0},
		{Rank: 0, File: "f", Op: trace.OpRead, Offset: 0, Size: 32 * units.KB, Time: 1},
		{Rank: 1, File: "f", Op: trace.OpRead, Offset: 64 * units.KB, Size: 16 * units.KB, Time: 0},
	}
	res, err := Run(mw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 3 {
		t.Errorf("Ops = %d", res.Ops)
	}
	if res.WriteBytes != 64*units.KB || res.ReadBytes != 48*units.KB {
		t.Errorf("bytes = %d/%d", res.ReadBytes, res.WriteBytes)
	}
	if res.TotalBytes() != 112*units.KB {
		t.Errorf("TotalBytes = %d", res.TotalBytes())
	}
	if res.Makespan <= 0 || res.Bandwidth() <= 0 {
		t.Errorf("makespan/bw = %v/%v", res.Makespan, res.Bandwidth())
	}
	if res.ReadBandwidth() <= 0 || res.WriteBandwidth() <= 0 {
		t.Error("per-op bandwidths should be positive")
	}
	if !strings.Contains(res.String(), "ops=3") {
		t.Errorf("String = %s", res.String())
	}
	if len(res.PerServer) != 4 {
		t.Errorf("PerServer len = %d", len(res.PerServer))
	}
}

// A single rank issues synchronously: with every request hitting one
// HServer, the makespan is the sum of the individual service times.
func TestRunSingleRankSerializes(t *testing.T) {
	mw := testMW(t, 1, 1)
	// Layout with only the HServer holding data.
	f, err := mw.Cluster.Create("f", stripe.Layout{M: 1, N: 1, H: 64 * units.KB, S: 0})
	if err != nil {
		t.Fatal(err)
	}
	var tr trace.Trace
	const ops = 5
	for i := 0; i < ops; i++ {
		tr = append(tr, trace.Record{
			Rank: 0, File: "f", Op: trace.OpWrite,
			Offset: int64(i) * 32 * units.KB, Size: 32 * units.KB, Time: float64(i),
		})
	}
	res, err := Run(mw, tr)
	if err != nil {
		t.Fatal(err)
	}
	h := mw.Cluster.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	want := float64(ops) * h.ServiceTime(trace.OpWrite, 32*units.KB)
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	_ = f
}

// Two ranks writing to regions on different single-server layouts overlap
// perfectly: the makespan equals one rank's time, not the sum.
func TestRunRanksProceedConcurrently(t *testing.T) {
	mw := testMW(t, 2, 2)
	if _, err := mw.Cluster.Create("fh", stripe.Layout{M: 1, N: 2, H: 64 * units.KB, S: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.Cluster.Create("fs", stripe.Layout{M: 2, N: 1, H: 0, S: 64 * units.KB}); err != nil {
		t.Fatal(err)
	}
	n := int64(64 * units.KB)
	tr := trace.Trace{
		{Rank: 0, File: "fh", Op: trace.OpWrite, Offset: 0, Size: n, Time: 0},
		{Rank: 1, File: "fs", Op: trace.OpWrite, Offset: 0, Size: n, Time: 0},
	}
	res, err := Run(mw, tr)
	if err != nil {
		t.Fatal(err)
	}
	h := mw.Cluster.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	slow := h.ServiceTime(trace.OpWrite, n)
	if math.Abs(res.Makespan-slow) > 1e-9 {
		t.Errorf("makespan = %v, want the slower rank alone %v", res.Makespan, slow)
	}
}

// Contention check: two ranks targeting the same single-server file
// serialize; the makespan doubles.
func TestRunContentionSerializes(t *testing.T) {
	mw := testMW(t, 1, 1)
	if _, err := mw.Cluster.Create("f", stripe.Layout{M: 1, N: 1, H: 64 * units.KB, S: 0}); err != nil {
		t.Fatal(err)
	}
	n := int64(64 * units.KB)
	tr := trace.Trace{
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 0, Size: n, Time: 0},
		{Rank: 1, File: "f", Op: trace.OpWrite, Offset: n, Size: n, Time: 0},
	}
	res, err := Run(mw, tr)
	if err != nil {
		t.Fatal(err)
	}
	h := mw.Cluster.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	// The second request arrives while the first is in flight, so it pays
	// one queue-depth step of seek interference on the HDD.
	want := 2*h.ServiceTime(trace.OpWrite, n) + h.Dev.SeekInterference
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want serialized %v", res.Makespan, want)
	}
}

// Replays are deterministic: identical traces on identical clusters give
// identical makespans.
func TestRunDeterministic(t *testing.T) {
	mk := func() float64 {
		mw := testMW(t, 3, 2)
		var tr trace.Trace
		for i := 0; i < 40; i++ {
			op := trace.OpRead
			if i%3 == 0 {
				op = trace.OpWrite
			}
			tr = append(tr, trace.Record{
				Rank: i % 5, File: "f", Op: op,
				Offset: int64(i) * 17 * units.KB, Size: int64(i%4+1) * 16 * units.KB,
				Time: float64(i / 5),
			})
		}
		res, err := Run(mw, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := mk(), mk()
	if a != b {
		t.Errorf("replay not deterministic: %v vs %v", a, b)
	}
}

// End-to-end scheme comparison on a heterogeneous workload: MHA must beat
// DEF, and per-server loads must be more balanced under MHA.
func TestRunMHABeatsDEF(t *testing.T) {
	// Heterogeneous read workload: small requests at high concurrency plus
	// large requests at low concurrency, interleaved through the file.
	mixed := func() trace.Trace {
		var tr trace.Trace
		off := int64(0)
		for loop := 0; loop < 6; loop++ {
			for r := 0; r < 8; r++ {
				tr = append(tr, trace.Record{Rank: r, File: "app", Op: trace.OpRead,
					Offset: off, Size: 16 * units.KB, Time: float64(2 * loop)})
				off += 16 * units.KB
			}
			for r := 0; r < 2; r++ {
				tr = append(tr, trace.Record{Rank: r, File: "app", Op: trace.OpRead,
					Offset: off, Size: 256 * units.KB, Time: float64(2*loop + 1)})
				off += 256 * units.KB
			}
		}
		return tr
	}

	run := func(scheme layout.Scheme) Result {
		mw := testMW(t, 6, 2)
		tr := mixed()
		env := layout.DefaultEnv()
		env.M, env.N = 6, 2
		pl, err := layout.NewPlanner(scheme)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.Plan(tr, env)
		if err != nil {
			t.Fatal(err)
		}
		placement, err := reorder.Apply(mw.Cluster, plan, reorder.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer placement.Close()
		mw.SetRedirector(reorder.NewRedirector(placement.DRT, 5e-6))
		// Write phase to populate, then read back per the trace.
		res, err := Run(mw, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	def := run(layout.DEF)
	mha := run(layout.MHA)
	if !(mha.Makespan < def.Makespan) {
		t.Errorf("MHA makespan %v should beat DEF %v", mha.Makespan, def.Makespan)
	}
}

func TestRunLatencies(t *testing.T) {
	mw := testMW(t, 2, 2)
	var tr trace.Trace
	for i := 0; i < 10; i++ {
		tr = append(tr, trace.Record{
			Rank: 0, File: "f", Op: trace.OpWrite,
			Offset: int64(i) * 64 * units.KB, Size: 64 * units.KB, Time: float64(i),
		})
	}
	res, err := Run(mw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != 10 {
		t.Fatalf("latencies = %d, want 10", len(res.Latencies))
	}
	for i, l := range res.Latencies {
		if l <= 0 {
			t.Errorf("latency %d = %v, want positive", i, l)
		}
	}
	s := res.LatencySummary()
	if s.Count != 10 || s.Max < s.P99 || s.P99 < s.P50 || s.Mean <= 0 {
		t.Errorf("summary inconsistent: %+v", s)
	}
	// A single rank issuing sequentially to an uncontended cluster: the
	// latency sum equals the makespan.
	var sum float64
	for _, l := range res.Latencies {
		sum += l
	}
	if math.Abs(sum-res.Makespan) > 1e-9 {
		t.Errorf("latency sum %v != makespan %v", sum, res.Makespan)
	}
	if !strings.Contains(res.String(), "p99=") {
		t.Errorf("String missing p99: %s", res.String())
	}
}

// LockStep: no rank may start epoch e+1 before all ranks finish epoch e.
// Construction: the two ranks use files on disjoint single-server layouts
// so they never contend; rank 0 issues one slow epoch-0 write, rank 1 a
// fast epoch-0 write plus an epoch-1 write. Independent mode lets rank 1
// finish both quickly; lockstep holds its epoch-1 write until rank 0's
// slow epoch-0 write completes.
func TestRunLockStepBarriers(t *testing.T) {
	mk := func(mode Mode) Result {
		mw := testMW(t, 2, 2)
		// Disjoint server classes per file: "big" on the HServers only,
		// "small" on the SServers only.
		if _, err := mw.Cluster.Create("big", stripe.Layout{M: 2, N: 2, H: 64 * units.KB, S: 0}); err != nil {
			t.Fatal(err)
		}
		if _, err := mw.Cluster.Create("small", stripe.Layout{M: 2, N: 2, H: 0, S: 64 * units.KB}); err != nil {
			t.Fatal(err)
		}
		tr := trace.Trace{
			{Rank: 0, File: "big", Op: trace.OpWrite, Offset: 0, Size: 4 * units.MB, Time: 0},
			{Rank: 1, File: "small", Op: trace.OpWrite, Offset: 0, Size: 4096, Time: 0},
			{Rank: 1, File: "small", Op: trace.OpWrite, Offset: 4096, Size: 4096, Time: 1},
		}
		res, err := RunWith(mw, tr, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ind := mk(Independent)
	lock := mk(LockStep)
	if ind.Ops != lock.Ops {
		t.Fatalf("op counts differ: %d vs %d", ind.Ops, lock.Ops)
	}
	// Independent: makespan is rank 0's slow write alone. Lockstep: rank
	// 1's epoch-1 write starts only after the slow write, so the makespan
	// must strictly exceed independent's.
	if !(lock.Makespan > ind.Makespan) {
		t.Errorf("lockstep %.6f should exceed independent %.6f", lock.Makespan, ind.Makespan)
	}
}

// Lockstep on a perfectly symmetric workload must equal independent mode.
func TestRunLockStepSymmetric(t *testing.T) {
	mk := func(mode Mode) float64 {
		mw := testMW(t, 2, 2)
		var tr trace.Trace
		for e := 0; e < 3; e++ {
			for r := 0; r < 4; r++ {
				tr = append(tr, trace.Record{Rank: r, File: "f", Op: trace.OpWrite,
					Offset: int64(e*4+r) * 64 * units.KB, Size: 64 * units.KB, Time: float64(e)})
			}
		}
		res, err := RunWith(mw, tr, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := mk(Independent), mk(LockStep)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("symmetric lockstep %.6f != independent %.6f", b, a)
	}
}

// Timed mode: records may not issue before their trace time stamps, so a
// trace with long compute gaps has a makespan at least the trace span.
func TestRunTimedHonorsTimestamps(t *testing.T) {
	mw := testMW(t, 2, 2)
	tr := trace.Trace{
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 0, Size: 4096, Time: 0},
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 4096, Size: 4096, Time: 2.5},
	}
	fast, err := RunWith(mw, tr, Options{Mode: Independent})
	if err != nil {
		t.Fatal(err)
	}
	mw2 := testMW(t, 2, 2)
	timed, err := RunWith(mw2, tr, Options{Mode: Timed})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan >= 2.5 {
		t.Fatalf("independent replay should ignore the gap: %v", fast.Makespan)
	}
	if timed.Makespan < 2.5 {
		t.Errorf("timed makespan %v must cover the 2.5s compute gap", timed.Makespan)
	}
	if timed.Ops != 2 {
		t.Errorf("ops = %d", timed.Ops)
	}
}

// In timed mode a rank's synchronous ordering still holds: a late record
// never overtakes an earlier slow one.
func TestRunTimedKeepsOrdering(t *testing.T) {
	mw := testMW(t, 1, 1)
	if _, err := mw.Cluster.Create("f", stripe.Layout{M: 1, N: 1, H: 64 * units.KB, S: 0}); err != nil {
		t.Fatal(err)
	}
	tr := trace.Trace{
		// Big request at t=0 takes far longer than 1 virtual ms.
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 0, Size: 4 * units.MB, Time: 0},
		{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 4 * units.MB, Size: 4096, Time: 0.001},
	}
	res, err := RunWith(mw, tr, Options{Mode: Timed})
	if err != nil {
		t.Fatal(err)
	}
	// The second write waits for the first despite its early due time.
	h := mw.Cluster.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	first := h.ServiceTime(trace.OpWrite, 4*units.MB)
	if res.Makespan <= first {
		t.Errorf("makespan %v should exceed the first request alone %v", res.Makespan, first)
	}
}

// TestOutageWithoutResilienceFailsTyped: an outage reaching a pipeline
// that has no resilience stages finishes the affected requests with the
// injector's typed error, and the replay reports it (wrapped), on
// byte-accurate and dataless clusters alike — no panic, no hang.
func TestOutageWithoutResilienceFailsTyped(t *testing.T) {
	for _, dataless := range []bool{false, true} {
		cfg := pfs.DefaultConfig()
		cfg.HServers, cfg.SServers = 2, 2
		cfg.Dataless = dataless
		c, err := pfs.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := fault.NewInjector(c.Eng, fault.Schedule{Windows: []fault.Window{
			{Server: "h0", Kind: fault.Outage, Start: 0, End: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		c.SetFaults(in)
		tr := trace.Trace{
			{Rank: 0, File: "f", Op: trace.OpWrite, Offset: 0, Size: 256 * units.KB, Time: 0},
			{Rank: 1, File: "f", Op: trace.OpRead, Offset: 0, Size: 256 * units.KB, Time: 0},
		}
		_, err = Run(mpiio.New(c), tr)
		if !errors.Is(err, fault.ErrUnavailable) {
			t.Errorf("dataless=%v: replay err = %v, want one wrapping ErrUnavailable", dataless, err)
		}
	}
}
