package iopath

import (
	"reflect"
	"testing"

	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// mark returns a stage that logs its name and forwards.
func mark(log *[]string, name string) Stage {
	return StageFunc(func(req *Request, next Handler) error {
		*log = append(*log, name)
		return next(req)
	})
}

// terminal completes the request at the current virtual time.
func terminal(log *[]string) Stage {
	return StageFunc(func(req *Request, next Handler) error {
		*log = append(*log, "end")
		req.Finish(req.pipe.Engine().Now())
		return nil
	})
}

// TestStageOrdering: stages registered in any order come out in the
// canonical chain order, interceptors after trace in registration order,
// and replacing a stage keeps its position.
func TestStageOrdering(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	var log []string
	install := []string{StageServer, "x", StageStripe, StageBatch, StageRedirect,
		"y", StageResilience, StageTrace, StageAdaptive, "z"}
	for _, name := range install {
		var err error
		if _, builtin := rank(name); !builtin {
			err = p.Intercept(name, mark(&log, name))
		} else if name == StageServer {
			err = p.Set(name, terminal(&log))
		} else {
			err = p.Set(name, mark(&log, name))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []string{StageTrace, "x", "y", "z", StageRedirect, StageAdaptive,
		StageResilience, StageStripe, StageBatch, StageServer}
	if got := p.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}

	// Replacing a built-in or an interceptor keeps its slot; a removed
	// built-in returns to its slot.
	if err := p.Set(StageRedirect, mark(&log, StageRedirect)); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("y", mark(&log, "y")); err != nil {
		t.Fatal(err)
	}
	if !p.Remove(StageAdaptive) {
		t.Fatal("Remove(adaptive) reported not present")
	}
	if err := p.Set(StageAdaptive, mark(&log, StageAdaptive)); err != nil {
		t.Fatal(err)
	}
	if got := p.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after replace/re-install Names() = %v, want %v", got, want)
	}

	var end float64 = -1
	req := &Request{Op: trace.OpWrite, File: "f", Data: []byte{1},
		OnComplete: func(e float64) { end = e }}
	if err := p.Submit(req); err != nil {
		t.Fatal(err)
	}
	wantLog := append(append([]string(nil), want[:len(want)-1]...), "end")
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("execution order = %v, want %v", log, wantLog)
	}
	if end != 0 || req.Complete != 0 || req.Submit != 0 {
		t.Fatalf("completion not stamped: end=%v submit=%v complete=%v", end, req.Submit, req.Complete)
	}
}

func TestRegistrationErrors(t *testing.T) {
	p := NewPipeline(&sim.Engine{})
	var log []string
	if err := p.Intercept("a", mark(&log, "a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("a", mark(&log, "a")); err == nil {
		t.Error("duplicate interceptor name accepted")
	}
	for _, name := range chainOrder {
		if name == "" {
			continue
		}
		if err := p.Intercept(name, mark(&log, name)); err == nil {
			t.Errorf("Intercept accepted built-in name %q", name)
		}
	}
	if err := p.Intercept("", mark(&log, "x")); err == nil {
		t.Error("empty interceptor name accepted")
	}
	if err := p.Set("", mark(&log, "x")); err == nil {
		t.Error("empty stage name accepted")
	}
	if err := p.Intercept("nil", nil); err == nil {
		t.Error("nil interceptor accepted")
	}
	if err := p.Set(StageStripe, nil); err == nil {
		t.Error("nil stage accepted")
	}
	if got, want := p.Names(), []string{"a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rejected registrations changed the chain: %v, want %v", got, want)
	}
	if p.Remove("ghost") {
		t.Error("Remove(ghost) reported true")
	}
	if !p.Remove("a") || len(p.Names()) != 0 {
		t.Error("Remove(a) did not unregister")
	}
}

// TestChainSnapshot: a request in flight keeps traversing the chain it was
// submitted into, even if stages are removed before its scheduled
// continuation runs.
func TestChainSnapshot(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	var log []string
	// "delay" forwards from a scheduled event, like the redirect stage.
	delay := StageFunc(func(req *Request, next Handler) error {
		eng.Schedule(1, func() {
			req.pipe.Exclusive(func() {
				if err := next(req); err != nil {
					t.Errorf("deferred next: %v", err)
				}
			})
		})
		return nil
	})
	if err := p.Intercept("delay", delay); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("obs", mark(&log, "obs")); err != nil {
		t.Fatal(err)
	}
	if err := p.Intercept("end", terminal(&log)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Request{File: "f", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	// Unregister the observer while the request sits in the event queue.
	if !p.Remove("obs") {
		t.Fatal("Remove(obs) failed")
	}
	eng.Run()
	want := []string{"obs", "end"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("in-flight request saw %v, want snapshot %v", log, want)
	}
	// A fresh request uses the updated chain.
	log = nil
	if err := p.Submit(&Request{File: "g", Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if want := []string{"end"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("post-removal request saw %v, want %v", log, want)
	}
}

func TestFallOffEnd(t *testing.T) {
	p := NewPipeline(&sim.Engine{})
	var log []string
	if err := p.Intercept("a", mark(&log, "a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(&Request{File: "f", Data: []byte{1}}); err == nil {
		t.Fatal("request past the last stage did not error")
	}
}

func TestRecorder(t *testing.T) {
	eng := &sim.Engine{}
	p := NewPipeline(eng)
	rec := NewRecorder()
	if err := p.Intercept("rec", rec); err != nil {
		t.Fatal(err)
	}
	finishAt := StageFunc(func(req *Request, next Handler) error {
		eng.Schedule(2, func() { req.Finish(eng.Now()) })
		return nil
	})
	if err := p.Intercept("end", finishAt); err != nil {
		t.Fatal(err)
	}
	var cbEnd float64
	err := p.Submit(&Request{Op: trace.OpRead, File: "f", Offset: 8, Data: make([]byte, 4),
		Rank: 3, OnComplete: func(e float64) { cbEnd = e }})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Submit(&Request{Op: trace.OpWrite, File: "g", Data: []byte{1}, Untraced: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if cbEnd != 2 {
		t.Fatalf("wrapped callback got end=%v, want 2", cbEnd)
	}
	recs := rec.Records()
	if len(recs) != 2 || rec.Len() != 2 {
		t.Fatalf("recorded %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Op != trace.OpRead || r0.File != "f" || r0.Offset != 8 || r0.Size != 4 ||
		r0.Rank != 3 || r0.Submit != 0 || r0.Complete != 2 || r0.Latency() != 2 {
		t.Fatalf("record mismatch: %+v", r0)
	}
	// CompletionTrace skips untraced requests and stamps completion times.
	ct := rec.CompletionTrace()
	if len(ct) != 1 || ct[0].File != "f" || ct[0].Time != 2 {
		t.Fatalf("CompletionTrace = %+v", ct)
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset did not clear records")
	}
}
