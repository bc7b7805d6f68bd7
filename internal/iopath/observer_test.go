package iopath

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// logObserver records stage entries in order.
type logObserver struct{ log []string }

func (o *logObserver) StageEnter(stage string, req *Request) {
	o.log = append(o.log, "enter:"+stage)
}

func TestObserverNesting(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	var log []string
	obs := &logObserver{}
	p.SetObserver(obs)
	if err := p.Intercept("a", mark(&log, "a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("b", mark(&log, "b")); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("end", terminal(&log)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Request{File: "f", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	// Every stage hop is observed once, in chain order.
	want := []string{"enter:a", "enter:b", "enter:end"}
	if !reflect.DeepEqual(obs.log, want) {
		t.Fatalf("observer saw %v, want %v", obs.log, want)
	}

	// Clearing the observer stops callbacks; requests still flow.
	p.SetObserver(nil)
	obs.log = nil
	if err := p.Submit(&Request{File: "g", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if len(obs.log) != 0 {
		t.Fatalf("cleared observer still saw %v", obs.log)
	}
}

func TestStageTimerVirtualSpans(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	reg := telemetry.NewRegistry()
	p.SetObserver(NewStageTimer(reg, eng))

	// "slow" completes the request 2 virtual seconds after dispatch, like a
	// server stage waiting out its sub-requests.
	slow := StageFunc(func(req *Request, next Handler) error {
		eng.Schedule(2, func() { req.Finish(eng.Now()) })
		return nil
	})
	if err := p.Intercept("pass", StageFunc(func(req *Request, next Handler) error {
		return next(req)
	})); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("slow", slow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit(&Request{File: "f", Data: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}

	for _, stage := range []string{"pass", "slow"} {
		if got := reg.Counter(MetricStageRequests, telemetry.L("stage", stage)).Value(); got != 3 {
			t.Errorf("stage %s requests = %v, want 3", stage, got)
		}
		span := reg.Span(MetricStageSpan, telemetry.L("stage", stage))
		if span.Count() != 3 || span.Total() != 6 {
			t.Errorf("stage %s full span = %v over %d, want 6 over 3 (2 virtual seconds each)",
				stage, span.Total(), span.Count())
		}
	}
}

func TestMeterCountsAndLatency(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	reg := telemetry.NewRegistry()
	if err := p.Intercept("meter", NewMeter(reg)); err != nil {
		t.Fatal(err)
	}
	finishAt := StageFunc(func(req *Request, next Handler) error {
		eng.Schedule(3, func() { req.Finish(eng.Now()) })
		return nil
	})
	if err := p.Intercept("end", finishAt); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Request{Op: trace.OpWrite, File: "f", Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Request{Op: trace.OpRead, File: "f", Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := reg.Counter(MetricRequests, telemetry.L("op", "write")).Value(); got != 1 {
		t.Errorf("writes = %v, want 1", got)
	}
	if got := reg.Counter(MetricRequests, telemetry.L("op", "read")).Value(); got != 1 {
		t.Errorf("reads = %v, want 1", got)
	}
	sizes := reg.Histogram(MetricRequestSize, telemetry.SizeBuckets())
	if sizes.Count() != 2 || sizes.Sum() != 4196 {
		t.Errorf("size histogram = %v over %d, want 4196 over 2", sizes.Sum(), sizes.Count())
	}
	lat := reg.Histogram(MetricRequestLatency, telemetry.LatencyBuckets())
	if lat.Count() != 2 || lat.Sum() != 6 {
		t.Errorf("latency histogram = %v over %d, want 6 over 2", lat.Sum(), lat.Count())
	}
}

// TestRecorderConcurrentEmission drives completion callbacks and readers
// from many goroutines; the race detector checks the Recorder's locking.
func TestRecorderConcurrentEmission(t *testing.T) {
	rec := NewRecorder()
	noop := func(req *Request) error { return nil }
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := &Request{Op: trace.OpWrite, File: fmt.Sprintf("f%d", w),
					Offset: int64(i), Data: []byte{1}, Rank: w}
				if err := rec.Handle(req, noop); err != nil {
					t.Error(err)
					return
				}
				req.OnComplete(float64(i))
				if i%10 == 0 {
					rec.Len()
					rec.CompletionTrace()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rec.Len(); got != workers*per {
		t.Fatalf("recorded %d, want %d", got, workers*per)
	}
	perFile := make(map[string]int)
	for _, r := range rec.Records() {
		perFile[r.File]++
	}
	for w := 0; w < workers; w++ {
		if n := perFile[fmt.Sprintf("f%d", w)]; n != per {
			t.Errorf("worker %d recorded %d, want %d", w, n, per)
		}
	}
}
