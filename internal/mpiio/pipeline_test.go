package mpiio

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mhafs/internal/fault"
	"mhafs/internal/iopath"
	"mhafs/internal/pfs"
	"mhafs/internal/region"
	"mhafs/internal/reorder"
	"mhafs/internal/telemetry"
	"mhafs/internal/units"
)

// TestConcurrentSubmission drives two goroutines submitting through
// separate FileHandles; the pipeline's submission lock must make this
// race-free (run with -race). The engine is driven single-threaded after
// both clients have finished submitting.
func TestConcurrentSubmission(t *testing.T) {
	c := testCluster(t)
	mw := New(c)

	const perClient = 8
	const chunk = 64 * units.KB
	payloads := make([][]byte, 2)
	for i := range payloads {
		payloads[i] = make([]byte, perClient*chunk)
		rand.New(rand.NewSource(int64(i + 1))).Read(payloads[i])
	}
	files := []string{"client0.dat", "client1.dat"}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := mw.Open(files[i], i)
			if err != nil {
				errs[i] = err
				return
			}
			for j := 0; j < perClient; j++ {
				off := int64(j) * chunk
				if err := h.WriteAt(payloads[i][off:off+chunk], off, nil); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	c.Eng.Run()

	for i, name := range files {
		h, err := mw.Open(name, i)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payloads[i]))
		if _, err := h.ReadAtSync(buf, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payloads[i]) {
			t.Errorf("client %d: read back differs from what was written", i)
		}
	}
}

// TestInterceptObservesEveryRequest registers a counting interceptor and
// checks that every independent request flows through it — and that no
// request short-circuits to the cluster behind the chain's back.
func TestInterceptObservesEveryRequest(t *testing.T) {
	c := testCluster(t)
	mw := New(c)
	var seen int
	count := iopath.StageFunc(func(req *iopath.Request, next iopath.Handler) error {
		seen++
		return next(req)
	})
	if err := mw.Intercept("count", count); err != nil {
		t.Fatal(err)
	}
	h, err := mw.Open("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32*units.KB)
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := h.WriteAtSync(data, int64(i)*int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if _, err := h.ReadAtSync(data, int64(i)*int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 2*n {
		t.Errorf("interceptor saw %d requests, want %d", seen, 2*n)
	}
	// Zero-length operations bypass the chain by design.
	if _, err := h.WriteAtSync(nil, 0); err != nil {
		t.Fatal(err)
	}
	if seen != 2*n {
		t.Errorf("zero-length op entered the chain (seen=%d)", seen)
	}
	if !mw.Uninstall("count") {
		t.Fatal("Uninstall(count) reported not present")
	}
	if _, err := h.WriteAtSync(data, 0); err != nil {
		t.Fatal(err)
	}
	if seen != 2*n {
		t.Errorf("uninstalled interceptor still sees requests (seen=%d)", seen)
	}
}

// TestCollectiveTraversesInterceptors: collective I/O's aggregated
// file-domain requests also flow through registered interceptors, marked
// untraced.
func TestCollectiveTraversesInterceptors(t *testing.T) {
	c := testCluster(t)
	mw := New(c)
	var total, untraced int
	count := iopath.StageFunc(func(req *iopath.Request, next iopath.Handler) error {
		total++
		if req.Untraced {
			untraced++
		}
		return next(req)
	})
	if err := mw.Intercept("count", count); err != nil {
		t.Fatal(err)
	}
	pieces := make([]Piece, 4)
	for i := range pieces {
		buf := make([]byte, 16*units.KB)
		rand.New(rand.NewSource(int64(i))).Read(buf)
		pieces[i] = Piece{Rank: i, Offset: int64(i) * int64(len(buf)), Data: buf}
	}
	done := false
	if err := mw.CollectiveWrite("coll.dat", pieces, CollectiveOptions{}, func(float64) { done = true }); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if !done {
		t.Fatal("collective write did not complete")
	}
	if total == 0 || untraced != total {
		t.Errorf("interceptor saw %d requests (%d untraced); want >0, all untraced", total, untraced)
	}
	// The independent path is traced; mix one in to prove the flag holds.
	h, _ := mw.Open("coll.dat", 0)
	if _, err := h.ReadAtSync(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if untraced != total-1 {
		t.Errorf("independent request not distinguishable: total=%d untraced=%d", total, untraced)
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := make([]int, 0, n)
			q = append(q, p[:at]...)
			q = append(q, n-1)
			q = append(q, p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// flakyInjector builds the flaky fault scenario over the cluster.
func flakyInjector(t *testing.T, c *pfs.Cluster) *fault.Injector {
	t.Helper()
	cfg := c.Config()
	sched, err := fault.ScenarioFlaky.Build(cfg.HServers, cfg.SServers, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(c.Eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestStageOrderContract: whatever order the middleware's stages are
// installed in, the chain comes out in iopath's canonical order, with
// interceptors after trace in the order they were registered.
func TestStageOrderContract(t *testing.T) {
	drt, err := region.OpenDRT("")
	if err != nil {
		t.Fatal(err)
	}
	defer drt.Close()
	pass := iopath.StageFunc(func(req *iopath.Request, next iopath.Handler) error { return next(req) })
	type install struct {
		name        string
		interceptor string // the interceptor it registers, if any
		run         func(*testing.T, *Middleware)
	}
	installs := []install{
		{"EnableTelemetry", StageMeter, func(t *testing.T, mw *Middleware) {
			mw.EnableTelemetry(telemetry.NewRegistry())
		}},
		{"EnableResilience", "", func(t *testing.T, mw *Middleware) {
			if err := mw.EnableResilience(ResilienceOptions{Injector: flakyInjector(t, mw.Cluster)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"EnableAdaptive", "", func(t *testing.T, mw *Middleware) {
			if err := mw.EnableAdaptive(AdaptiveOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetRedirector", "", func(t *testing.T, mw *Middleware) {
			mw.SetRedirector(reorder.NewRedirector(drt, 0))
		}},
		{"Intercept", "count", func(t *testing.T, mw *Middleware) {
			if err := mw.Intercept("count", pass); err != nil {
				t.Fatal(err)
			}
		}},
	}
	perms := permutations(len(installs))
	if len(perms) != 120 {
		t.Fatalf("%d install orders, want 120", len(perms))
	}
	for _, perm := range perms {
		mw := New(testCluster(t))
		want := []string{iopath.StageTrace}
		var order []string
		for _, i := range perm {
			installs[i].run(t, mw)
			order = append(order, installs[i].name)
			if ic := installs[i].interceptor; ic != "" {
				want = append(want, ic)
			}
		}
		want = append(want, iopath.StageRedirect, iopath.StageAdaptive,
			iopath.StageResilience, iopath.StageStripe, iopath.StageServer)
		if got := mw.pipe.Names(); !reflect.DeepEqual(got, want) {
			t.Errorf("install order %v: chain %v, want %v", order, got, want)
		}
	}

	// Batching lands between stripe and server whether resilience comes
	// before or after it.
	for _, batchFirst := range []bool{true, false} {
		mw := New(testCluster(t))
		enable := func() {
			if err := mw.EnableBatching(0); err != nil {
				t.Fatal(err)
			}
		}
		if batchFirst {
			enable()
		}
		if err := mw.EnableResilience(ResilienceOptions{Injector: flakyInjector(t, mw.Cluster)}); err != nil {
			t.Fatal(err)
		}
		if !batchFirst {
			enable()
		}
		want := []string{iopath.StageTrace, iopath.StageResilience, iopath.StageStripe,
			iopath.StageBatch, iopath.StageServer}
		if got := mw.pipe.Names(); !reflect.DeepEqual(got, want) {
			t.Errorf("batching first=%v: chain %v, want %v", batchFirst, got, want)
		}
	}

	// Interceptors never take a built-in name or an existing one.
	mw := New(testCluster(t))
	for _, name := range []string{iopath.StageTrace, iopath.StageRedirect, iopath.StageAdaptive,
		iopath.StageResilience, iopath.StageStripe, iopath.StageBatch, iopath.StageServer} {
		if err := mw.Intercept(name, pass); err == nil {
			t.Errorf("Intercept(%q) accepted a built-in stage name", name)
		}
	}
	if err := mw.Intercept("count", pass); err != nil {
		t.Fatal(err)
	}
	if err := mw.Intercept("count", pass); err == nil {
		t.Error("Intercept accepted a duplicate interceptor name")
	}
}
