package server

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mhafs/internal/device"
	"mhafs/internal/fault"
	"mhafs/internal/netmodel"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// newFaultyServer builds a server with the given schedule attached.
func newFaultyServer(t *testing.T, eng *sim.Engine, sched fault.Schedule) (*Server, *fault.Injector) {
	t.Helper()
	s, err := New(eng, "h0", device.DefaultHDD(), netmodel.DefaultGigE())
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(in)
	return s, in
}

// TestSlowdownScalesDeviceTermOnly pins the degraded service time by
// hand: device time scales by the factor, the network term does not.
func TestSlowdownScalesDeviceTermOnly(t *testing.T) {
	eng := &sim.Engine{}
	s, _ := newFaultyServer(t, eng, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Slowdown, Start: 0, End: math.Inf(1), Factor: 4},
	}})
	const n = 64 << 10
	var end float64
	submit(s, trace.OpWrite, 0, make([]byte, n), func(e float64, err error) {
		if err != nil {
			t.Errorf("slowdown must not fail the attempt: %v", err)
		}
		end = e
	})
	eng.Run()
	want := s.Dev.ServiceTimeAt(trace.OpWrite, n, 0)*4 + s.Net.TransferTime(n)
	if end != want {
		t.Errorf("degraded write end = %v, want %v", end, want)
	}
	// The healthy service time is strictly smaller.
	if healthy := s.ServiceTime(trace.OpWrite, n); end <= healthy {
		t.Errorf("degraded %v not slower than healthy %v", end, healthy)
	}
}

// TestTransientConsumesServiceAndSkipsCommit: the attempt occupies the
// full service slot, fails with ErrTransient, and no bytes land.
func TestTransientConsumesServiceAndSkipsCommit(t *testing.T) {
	eng := &sim.Engine{}
	s, _ := newFaultyServer(t, eng, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Transient, Start: 0, End: 1},
	}})
	const n = 4096
	var end float64
	var gotErr error
	submit(s, trace.OpWrite, 0, bytes.Repeat([]byte{0xAB}, n), func(e float64, err error) {
		end, gotErr = e, err
	})
	eng.Run()
	if !errors.Is(gotErr, fault.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", gotErr)
	}
	if want := s.ServiceTime(trace.OpWrite, n); end != want {
		t.Errorf("failed attempt end = %v, want full service time %v", end, want)
	}
	buf := make([]byte, n)
	s.Object("f").ReadAt(buf, 0)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x committed by a failed write", i, b)
		}
	}
	if st := s.Stats(); st.Writes != 0 || st.WriteBytes != 0 {
		t.Errorf("failed attempt counted in stats: %+v", st)
	}
	if s.Stats().BusyTime == 0 {
		t.Error("failed attempt must still accumulate busy time")
	}
}

// TestOutageRefusesImmediately: no queue, no service time — completion at
// the submission instant (asynchronously).
func TestOutageRefusesImmediately(t *testing.T) {
	eng := &sim.Engine{}
	s, _ := newFaultyServer(t, eng, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Outage, Start: 0, End: 1},
	}})
	var end float64 = -1
	var gotErr error
	submit(s, trace.OpRead, 0, make([]byte, 4096), func(e float64, err error) {
		end, gotErr = e, err
	})
	eng.Run()
	if !errors.Is(gotErr, fault.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", gotErr)
	}
	if end != 0 {
		t.Errorf("refusal at %v, want the submission instant 0", end)
	}
	if s.Stats().BusyTime != 0 {
		t.Error("a refused attempt must not occupy the server")
	}
}

// TestFaultConsultedAtServiceTime: a request submitted while healthy but
// whose FIFO service start falls inside a later window is faulted — the
// hook is consulted at service time, not submission time.
func TestFaultConsultedAtServiceTime(t *testing.T) {
	eng := &sim.Engine{}
	const n = 1 << 20 // ~11 ms of HDD service
	s, _ := newFaultyServer(t, eng, fault.Schedule{Windows: []fault.Window{
		{Server: "h0", Kind: fault.Transient, Start: 5e-3, End: 10},
	}})
	first := s.ServiceTime(trace.OpWrite, n)
	if first <= 5e-3 {
		t.Fatalf("test needs the first request to outlast the window start, got %v", first)
	}
	var errs []error
	done := func(e float64, err error) { errs = append(errs, err) }
	// At t=0 the server is healthy: the first attempt starts immediately
	// and succeeds. The second queues behind it; its service starts at
	// first > 5 ms, inside the transient window, so it fails.
	submit(s, trace.OpWrite, 0, make([]byte, n), done)
	submit(s, trace.OpWrite, n, make([]byte, n), done)
	eng.Run()
	if len(errs) != 2 {
		t.Fatalf("completions = %d, want 2", len(errs))
	}
	if errs[0] != nil {
		t.Errorf("first attempt (service start 0) failed: %v", errs[0])
	}
	if !errors.Is(errs[1], fault.ErrTransient) {
		t.Errorf("queued attempt (service start %v) = %v, want ErrTransient", first, errs[1])
	}
}

// TestHealthyPathUnchangedWithInjector: an attached injector with no
// covering window leaves the timing exactly as without one.
func TestHealthyPathUnchangedWithInjector(t *testing.T) {
	const n = 128 << 10
	run := func(attach bool) float64 {
		eng := &sim.Engine{}
		s, err := New(eng, "h0", device.DefaultHDD(), netmodel.DefaultGigE())
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			in, err := fault.NewInjector(eng, fault.Schedule{Windows: []fault.Window{
				{Server: "h0", Kind: fault.Outage, Start: 100, End: 200},
			}})
			if err != nil {
				t.Fatal(err)
			}
			s.SetFaults(in)
		}
		var end float64
		submit(s, trace.OpWrite, 0, make([]byte, n), func(e float64, _ error) { end = e })
		submit(s, trace.OpRead, 0, make([]byte, n), func(e float64, _ error) { end = e })
		eng.Run()
		return end
	}
	if with, without := run(true), run(false); with != without {
		t.Errorf("healthy timing differs with injector attached: %v vs %v", with, without)
	}
}
