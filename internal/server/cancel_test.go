package server

import (
	"errors"
	"testing"

	"mhafs/internal/device"
	"mhafs/internal/netmodel"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

// newCancelServer builds a dataless server for cancellation tests.
func newCancelServer(t *testing.T) (*sim.Engine, *Server) {
	t.Helper()
	eng := &sim.Engine{}
	s, err := New(eng, "h0", device.DefaultHDD(), netmodel.DefaultGigE())
	if err != nil {
		t.Fatal(err)
	}
	s.SetDataless(true)
	return eng, s
}

// handles is a Canceller keeping every registered handle.
type handles []*Pending

func (h *handles) Add(p *Pending) { *h = append(*h, p) }

// submitCancellable submits a 64 KB dataless write withdrawably and
// returns its handle.
func submitCancellable(s *Server, done doneFunc) *Pending {
	var h handles
	s.Submit(Sub{Op: trace.OpWrite, Bytes: 64 * units.KB, Done: done, Cancels: &h})
	return h[0]
}

// TestCancelRescindsUnstartedTail: cancelling the queue tail before its
// service window starts withdraws the reservation — the backlog rolls
// back, the commit never runs, and the completion surfaces ErrCancelled
// asynchronously.
func TestCancelRescindsUnstartedTail(t *testing.T) {
	eng, s := newCancelServer(t)
	var firstErr, tailErr error
	done1 := func(end float64, err error) { firstErr = err }
	p1 := submitCancellable(s, done1)
	backlogOne := s.Backlog()
	p2 := submitCancellable(s, func(end float64, err error) { tailErr = err })
	if s.Backlog() <= backlogOne {
		t.Fatalf("backlog %v did not grow past %v on the second submission", s.Backlog(), backlogOne)
	}

	p2.Cancel()
	if !p2.Rescinded() || !p2.Cancelled() {
		t.Fatalf("unstarted tail: rescinded=%v cancelled=%v, want both true", p2.Rescinded(), p2.Cancelled())
	}
	if got := s.Backlog(); got != backlogOne {
		t.Errorf("backlog after rescind = %v, want rolled back to %v", got, backlogOne)
	}
	eng.Run()

	if !errors.Is(tailErr, ErrCancelled) {
		t.Errorf("rescinded completion err = %v, want ErrCancelled", tailErr)
	}
	if firstErr != nil {
		t.Errorf("first submission err = %v, want nil", firstErr)
	}
	if st := s.Stats(); st.Writes != 1 || st.WriteBytes != 64*units.KB {
		t.Errorf("stats = %d writes / %d bytes, want the surviving submission only", st.Writes, st.WriteBytes)
	}
	if p1.Cancelled() {
		t.Error("first submission reports cancelled")
	}
}

// TestCancelBurnsStartedWindow: a window already in service cannot be
// rescinded — the device does the work to the original end time, but
// the commit is suppressed and the completion carries ErrCancelled.
func TestCancelBurnsStartedWindow(t *testing.T) {
	eng, s := newCancelServer(t)
	var end float64
	var err error
	p := submitCancellable(s, func(e float64, e2 error) { end, err = e, e2 })
	want := s.Backlog() // the reserved service window

	p.Cancel()
	if p.Rescinded() {
		t.Fatal("in-service window reports rescinded")
	}
	p.Cancel() // double-cancel is a no-op
	eng.Run()

	if !errors.Is(err, ErrCancelled) {
		t.Errorf("burned completion err = %v, want ErrCancelled", err)
	}
	if end != want {
		t.Errorf("burned completion at %v, want the original service end %v", end, want)
	}
	if st := s.Stats(); st.Writes != 0 || st.WriteBytes != 0 {
		t.Errorf("stats = %d writes / %d bytes, want commit suppressed", st.Writes, st.WriteBytes)
	}
	p.Cancel() // cancelling a settled handle is a no-op
}

// TestCancelCoveredWindowBurns: a queued window that is no longer the
// tail burns too — eager FIFO reservation fixed every later start time,
// so the middle of the queue cannot be withdrawn.
func TestCancelCoveredWindowBurns(t *testing.T) {
	eng, s := newCancelServer(t)
	submitCancellable(s, func(end float64, err error) {})
	mid := submitCancellable(s, func(end float64, err error) {})
	submitCancellable(s, func(end float64, err error) {})

	mid.Cancel()
	if mid.Rescinded() {
		t.Fatal("covered window reports rescinded")
	}
	eng.Run()

	if st := s.Stats(); st.Writes != 2 {
		t.Errorf("stats = %d writes, want 2 (the cancelled middle burned)", st.Writes)
	}
}

// TestCancelBurnsByteAccurateWrite: on a byte-storing server a burned
// window suppresses the byte movement too — the payload never lands.
func TestCancelBurnsByteAccurateWrite(t *testing.T) {
	eng := &sim.Engine{}
	s := newTestServer(t, eng)
	var h handles
	var err error
	s.Submit(Sub{
		Op: trace.OpWrite, Object: "f", Bytes: 4,
		Payload: []byte{1, 2, 3, 4},
		Done:    doneFunc(func(_ float64, e error) { err = e }),
		Cancels: &h,
	})
	h[0].Cancel()
	eng.Run()
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	got := make([]byte, 4)
	s.Object("f").ReadAt(got, 0)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d landed from a cancelled write", i, b)
		}
	}
}
