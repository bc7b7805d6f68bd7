package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Error("zero engine should start empty at time 0")
	}
	if e.Step() {
		t.Error("Step on empty engine should report false")
	}
	if got := e.Run(); got != 0 {
		t.Errorf("Run on empty engine = %v, want 0", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(2.0, func() { order = append(order, 2) })
	e.Schedule(1.0, func() { order = append(order, 1) })
	e.Schedule(3.0, func() { order = append(order, 3) })
	end := e.Run()
	if end != 3.0 {
		t.Errorf("final time = %v, want 3.0", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events must fire in schedule order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.Schedule(1.0, func() {
		times = append(times, e.Now())
		e.Schedule(0.5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1.0 || times[1] != 1.5 {
		t.Errorf("times = %v", times)
	}
}

func TestScheduleZeroDelay(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(1, func() {
		e.Schedule(0, func() { ran = true })
	})
	e.Run()
	if !ran {
		t.Error("zero-delay event did not run")
	}
}

func TestSchedulePanics(t *testing.T) {
	var e Engine
	mustPanic(t, "negative delay", func() { e.Schedule(-1, func() {}) })
	mustPanic(t, "NaN delay", func() { e.Schedule(math.NaN(), func() {}) })
	mustPanic(t, "nil fn", func() { e.Schedule(1, nil) })
	e.Schedule(5, func() {})
	e.Run()
	mustPanic(t, "past time", func() { e.At(1, func() {}) })
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", e.Fired())
	}
}

// Property: events always fire in non-decreasing time order.
func TestEventOrderQuick(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		var e Engine
		var fired []float64
		for _, d := range delaysRaw {
			e.Schedule(float64(d)/100.0, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceFIFO(t *testing.T) {
	var e Engine
	r := NewResource(&e, "srv")
	var ends []float64
	// Three requests arriving at time 0 with service 1s each must finish at
	// 1, 2, 3 (FIFO serialization).
	for i := 0; i < 3; i++ {
		r.Acquire(1.0, func(start, end float64) { ends = append(ends, end) })
	}
	e.Run()
	want := []float64{1, 2, 3}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.Served() != 3 {
		t.Errorf("Served = %d", r.Served())
	}
	if math.Abs(r.BusyTime()-3.0) > 1e-12 {
		t.Errorf("BusyTime = %v", r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	var e Engine
	r := NewResource(&e, "srv")
	var starts []float64
	e.Schedule(0, func() { r.Acquire(1, func(s, _ float64) { starts = append(starts, s) }) })
	// Second request arrives after the first completed: no queueing.
	e.Schedule(5, func() { r.Acquire(1, func(s, _ float64) { starts = append(starts, s) }) })
	e.Run()
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 5 {
		t.Errorf("starts = %v, want [0 5]", starts)
	}
}

func TestResourcePanics(t *testing.T) {
	mustPanic(t, "nil engine", func() { NewResource(nil, "x") })
	var e Engine
	r := NewResource(&e, "x")
	mustPanic(t, "negative service", func() { r.Acquire(-1, nil) })
	mustPanic(t, "NaN service", func() { r.Acquire(math.NaN(), nil) })
}

// Property: for any arrival pattern at time 0, a FIFO resource's makespan
// equals the sum of service times.
func TestResourceMakespanQuick(t *testing.T) {
	f := func(servicesRaw []uint8) bool {
		var e Engine
		r := NewResource(&e, "srv")
		var sum float64
		for _, s := range servicesRaw {
			sv := float64(s) / 10.0
			sum += sv
			r.Acquire(sv, nil)
		}
		end := e.Run()
		return math.Abs(end-sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBarrier(t *testing.T) {
	fired := false
	b := NewBarrier(3, func() { fired = true })
	b.Arrive()
	b.Arrive()
	if fired {
		t.Error("barrier fired early")
	}
	if b.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", b.Remaining())
	}
	b.Arrive()
	if !fired {
		t.Error("barrier did not fire")
	}
	mustPanic(t, "extra arrival", b.Arrive)
}

func TestBarrierPanics(t *testing.T) {
	mustPanic(t, "zero count", func() { NewBarrier(0, func() {}) })
	mustPanic(t, "nil fn", func() { NewBarrier(1, nil) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: want panic", name)
		}
	}()
	fn()
}
