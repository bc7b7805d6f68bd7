// Hand-computed estimator tests: the EWMA fold, the class medians, and
// the straggler predicate are checked against arithmetic done on paper,
// in-package so the flat state can be posed directly.
package adaptive

import (
	"testing"

	"mhafs/internal/pfs"
	"mhafs/internal/server"
	"mhafs/internal/stripe"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

// fakeEstimator builds an estimator with posed state and no live
// servers; valid for everything that reads only est/samples.
func fakeEstimator(hCount, total int) *Estimator {
	return &Estimator{
		servers: make([]*server.Server, total),
		hCount:  hCount,
		est:     make([]float64, total),
		samples: make([]int, total),
		scratch: make([]float64, total),
	}
}

// TestObserveEWMAHandComputed drives Observe against a live dataless
// cluster with one loaded server and checks the fold by hand: starting
// from zero with α = 1/2 the estimate walks b/2, 3b/4 while the backlog
// holds at b, then decays to 3b/8 once the queue drains (halving
// weights are exact in binary floating point, so == comparisons hold).
func TestObserveEWMAHandComputed(t *testing.T) {
	cfg := pfs.DefaultConfig()
	cfg.Dataless = true
	c, err := pfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEstimator(c, 0.5)
	srv := c.Servers()[0]
	if got := e.Index(srv); got != 0 {
		t.Fatalf("Index(first server) = %d, want 0", got)
	}

	srv.Submit(server.Sub{Op: trace.OpWrite, Bytes: 8 * units.MB, Done: ignoreDone{}})
	b := srv.Backlog()
	if b <= 0 {
		t.Fatalf("backlog after submission = %v, want > 0", b)
	}

	e.Observe()
	if got := e.Estimate(0); got != 0.5*b {
		t.Errorf("after 1 observation: est = %v, want b/2 = %v", got, 0.5*b)
	}
	e.Observe()
	if got := e.Estimate(0); got != 0.75*b {
		t.Errorf("after 2 observations: est = %v, want 3b/4 = %v", got, 0.75*b)
	}
	for i := range c.Servers() {
		if got := e.Samples(i); got != 2 {
			t.Errorf("samples[%d] = %d, want 2 (all servers observed together)", i, got)
		}
		if i > 0 && e.Estimate(i) != 0 {
			t.Errorf("idle server %d drifted to %v", i, e.Estimate(i))
		}
	}

	c.Eng.Run() // drain: backlog falls to zero
	e.Observe()
	if got := e.Estimate(0); got != 0.375*b {
		t.Errorf("after drain: est = %v, want 3b/8 = %v", got, 0.375*b)
	}
}

// TestClassMedianHandComputed poses estimates directly: odd classes take
// the middle value, even classes the mean of the middle pair, and the
// two classes never mix.
func TestClassMedianHandComputed(t *testing.T) {
	odd := fakeEstimator(3, 5)
	copy(odd.est, []float64{5, 1, 2, 7, 3})
	if got := odd.ClassMedian(stripe.ClassH); got != 2 {
		t.Errorf("odd H median of {5,1,2} = %v, want 2", got)
	}
	if got := odd.ClassMedian(stripe.ClassS); got != 5 {
		t.Errorf("even S median of {7,3} = %v, want 5", got)
	}

	even := fakeEstimator(4, 6)
	copy(even.est, []float64{5, 1, 4, 2, 9, 9})
	if got := even.ClassMedian(stripe.ClassH); got != 3 {
		t.Errorf("even H median of {5,1,4,2} = %v, want (2+4)/2 = 3", got)
	}
}

// TestIsStragglerThresholds walks the predicate across each gate by
// hand: the warm-up sample floor, the absolute estimate floor, and the
// exact ratio boundary (at the threshold is not over it).
func TestIsStragglerThresholds(t *testing.T) {
	pol := Policy{RerouteThreshold: 4, MinSamples: 8, MinEstimate: 0.05}
	e := fakeEstimator(3, 4)
	copy(e.est, []float64{0.9, 0.1, 0.1, 0})
	e.samples[0] = 7
	if e.IsStraggler(0, &pol) {
		t.Error("7 samples < MinSamples 8: must not be trusted yet")
	}
	e.samples[0] = 8
	if !e.IsStraggler(0, &pol) {
		t.Error("0.9 > 4 × median 0.1 with enough samples: straggler")
	}
	e.est[0] = 0.4
	if e.IsStraggler(0, &pol) {
		t.Error("0.4 == 4 × median 0.1 exactly: at the threshold is not over it")
	}
	// Ratio clears but the absolute floor does not: an idle class's noise.
	copy(e.est, []float64{0.04, 0.002, 0.002, 0})
	if e.IsStraggler(0, &pol) {
		t.Error("0.04 < MinEstimate 0.05: below the absolute floor")
	}
	e.est[0] = 0.06
	if !e.IsStraggler(0, &pol) {
		t.Error("0.06 clears both the floor and 4 × median 0.002")
	}
}

// TestPolicyValidate pins each invariant and that the defaults pass.
func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("DefaultPolicy invalid: %v", err)
	}
	base := DefaultPolicy()
	cases := []struct {
		name   string
		mutate func(*Policy)
	}{
		{"alpha zero", func(p *Policy) { p.Alpha = 0 }},
		{"alpha above one", func(p *Policy) { p.Alpha = 1.5 }},
		{"reroute threshold at one", func(p *Policy) { p.RerouteThreshold = 1 }},
		{"min samples zero", func(p *Policy) { p.MinSamples = 0 }},
		{"negative estimate floor", func(p *Policy) { p.MinEstimate = -1 }},
		{"negative spec deadline", func(p *Policy) { p.SpecWait = -1 }},
		{"spec threshold at one", func(p *Policy) { p.SpecWait = 0.01; p.SpecThreshold = 1 }},
		{"max reroutes zero", func(p *Policy) { p.MaxReroutes = 0 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
	// SpecWait 0 disables speculation and exempts SpecThreshold.
	p := base
	p.SpecWait, p.SpecThreshold = 0, 0
	if err := p.Validate(); err != nil {
		t.Errorf("speculation disabled: Validate rejected %+v: %v", p, err)
	}
}

// ignoreDone is a server.Done that discards the completion.
type ignoreDone struct{}

func (ignoreDone) IODone(float64, error) {}
