package server

import (
	"errors"
	"fmt"

	"mhafs/internal/fault"
	"mhafs/internal/trace"
)

// Submission. Every sub-request reaches a server through Submit and one
// descriptor, Sub: byte-accurate or dataless, cancellable or not, with or
// without an attached fault injector. One fault consultation, one
// service-time computation and one completion body (Pending.Fire) serve
// all of them, so the per-server term of the paper's cost model (Eq. 2)
// is written exactly once.
//
// Dataless mode: the XL simulation tier measures timing, queueing and
// layout behaviour over ≥10⁶ requests — it never reads the bytes back
// out-of-band, so materializing every payload in ByteStores (and the
// defensive copy each byte-accurate write makes) is pure overhead at that
// scale. A dataless server charges exactly the same virtual-time costs
// through exactly the same FIFO resource, but skips the byte movement;
// steady state its submissions allocate nothing.

// Done receives a sub-request's completion: its virtual end time and its
// error — nil, fault.ErrUnavailable, fault.ErrTransient or ErrCancelled.
// *iopath.Request implements it, so the pipeline's terminal stages hand
// the request itself to the server — no completion closure per
// sub-request.
type Done interface {
	IODone(end float64, err error)
}

// Canceller collects the handles of cancellable submissions.
// *iopath.CancelSet implements it.
type Canceller interface {
	Add(p *Pending)
}

// Sub describes one server sub-request.
type Sub struct {
	Op     trace.Op
	Object string // server-side object holding the file's bytes
	Local  int64  // offset within Object
	Bytes  int64  // bytes moved; sizes the service time

	// Payload is the write source or the read landing buffer, Bytes long.
	// Byte-storing servers require it: a write's bytes are copied at
	// submission, a read's land at completion before Done runs. Dataless
	// servers ignore it.
	Payload []byte

	// Done receives the completion. Required.
	Done Done

	// Cancels, when non-nil, makes the submission withdrawable: its
	// Pending handle is registered here once the window is reserved.
	Cancels Canceller
}

// ErrCancelled reports a submission withdrawn by its client before
// completion. It is terminal: the retry stage must not re-issue a
// cancelled attempt.
var ErrCancelled = errors.New("server: submission cancelled")

// SetDataless switches the server's payload handling. Flipping it on a
// server that already stores bytes is a wiring bug the caller owns;
// clusters set it once at construction.
func (s *Server) SetDataless(v bool) { s.dataless = v }

// IsDataless reports whether the server skips payload materialization.
func (s *Server) IsDataless() bool { return s.dataless }

// Backlog returns the server's current queue backlog in virtual seconds:
// how long a sub-request submitted now would wait before service starts.
// It is the client-observable congestion signal the adaptive scheduler's
// latency estimator samples — clients cannot see injected fault state
// directly, but they can see its effect on the queue.
func (s *Server) Backlog() float64 {
	b := s.res.BusyUntil() - s.eng.Now()
	if b < 0 {
		return 0
	}
	return b
}

// Submit enqueues one sub-request behind the server's FIFO queue.
//
// The fault hook is consulted once, at the attempt's service-start time:
// under FIFO the start is max(now, queue drain), known deterministically
// at submission. An outage refuses the attempt at the door — no queue, no
// service time — and completes it asynchronously with
// fault.ErrUnavailable. A slowdown scales the device term of the service
// time. A transient fault consumes the full service slot (telemetry
// observes it: the device and wire did the work) and then fails with
// fault.ErrTransient without committing.
//
// Otherwise the service window is reserved and exactly one completion
// event is scheduled at its end, where Pending.Fire commits the bytes and
// counters and calls Done. Non-cancellable submissions ride pooled
// descriptors; cancellable ones get a fresh handle, registered with
// sub.Cancels, that is never recycled.
func (s *Server) Submit(sub Sub) {
	if sub.Done == nil {
		panic(fmt.Sprintf("server %s: submit with nil completion", s.Name))
	}
	if !s.dataless && int64(len(sub.Payload)) != sub.Bytes {
		panic(fmt.Sprintf("server %s: %d-byte payload for a %d-byte sub-request", s.Name, len(sub.Payload), sub.Bytes))
	}
	submit := s.eng.Now()
	d := fault.Healthy()
	if s.faults != nil {
		start := submit
		if bu := s.res.BusyUntil(); bu > start {
			start = bu
		}
		d = s.faults.At(s.Name, start)
		s.faults.Observe(s.Name, d)
		if d.Down {
			// Refused at the door, asynchronously like every submit. The
			// fault path may allocate: outages are rare by construction.
			done := sub.Done
			s.eng.Schedule(0, func() { done.IODone(s.eng.Now(), fault.ErrUnavailable) }) //mhavet:allow closure
			return
		}
	}
	n := sub.Bytes
	service := s.serviceTimeAt(sub.Op, n, s.res.Depth())
	if d.Scale != 1 && n > 0 {
		// Only the device term degrades; the network path is healthy.
		service = s.Dev.ServiceTimeAt(sub.Op, n, s.res.Depth())*d.Scale + s.Net.TransferTime(n)
	}
	switch {
	case s.dataless:
		sub.Payload = nil
	case sub.Op == trace.OpWrite:
		// Copy now: the caller may reuse its buffer before virtual
		// completion. Only byte-storing servers pay for the copy; the
		// dataless hot path never reaches it. Spelled as make(len(data))
		// then copy between locals so the compiler emits one
		// makeslicecopy and skips zeroing the buffer.
		data := sub.Payload
		buf := make([]byte, len(data)) //mhavet:allow literal
		copy(buf, data)
		sub.Payload = buf
	}
	start, end := s.res.Reserve(service)
	var p *Pending
	if sub.Cancels != nil {
		// A handle stays reachable from its Canceller after settling, so
		// it is never pooled; only speculative duplicates take this path.
		p = &Pending{cancellable: true} //mhavet:allow literal
	} else {
		p = s.getPending()
	}
	p.srv, p.sub = s, sub
	p.submit, p.start, p.end = submit, start, end
	p.transient = d.Transient
	s.eng.AtCall(end, p)
	if sub.Cancels != nil {
		sub.Cancels.Add(p)
	}
}

// getPending pops a pooled descriptor (the pool is confined to the
// engine's single thread, like the server itself).
func (s *Server) getPending() *Pending {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return p
	}
	return &Pending{}
}

// Pending is one submission in service: the reserved window, the fault
// decision taken at submit, and the descriptor to complete. Callers see
// it only as the handle of a cancellable submission.
//
// Under the simulator's eager FIFO reservation (sim.Resource) a window is
// fixed the moment it is reserved, so cancellation has exactly two
// deterministic outcomes:
//
//   - the window has not started and is still the queue tail: the
//     reservation is rescinded and the server never performs the work;
//   - otherwise the window burns — the device and wire do the work, as
//     they would for a request already dispatched to a real server's
//     queue — but the commit (byte movement, op counters) is suppressed.
//
// Either way the submission completes with ErrCancelled, so descriptor
// bookkeeping upstream always runs.
type Pending struct {
	srv       *Server
	sub       Sub
	submit    float64
	start     float64
	end       float64
	transient bool

	cancellable bool
	cancelled   bool
	rescinded   bool
	settled     bool
}

// Fire completes the submission at its service-end event (it implements
// sim.Callback; only the engine calls it): resource bookkeeping, the
// commit of a successful attempt, telemetry, then Done. A pooled
// descriptor is recycled before Done runs — IODone may submit follow-on
// work to this same server and immediately reuse it.
func (p *Pending) Fire() {
	if p.rescinded {
		// Rescind already undid the reservation.
		return
	}
	s, sub := p.srv, p.sub
	submit, start, end := p.submit, p.start, p.end
	var err error
	switch {
	case p.cancelled:
		err = ErrCancelled
	case p.transient:
		err = fault.ErrTransient
	}
	if p.cancellable {
		p.settled = true
	} else {
		*p = Pending{}
		s.free = append(s.free, p)
	}
	s.res.Complete()
	if err == nil {
		s.commit(sub)
	}
	if s.tel != nil {
		s.tel.observe(sub.Op, sub.Bytes, submit, start, end)
	}
	sub.Done.IODone(end, err)
}

// commit applies a successful attempt: byte movement on byte-storing
// servers, then the op counters.
func (s *Server) commit(sub Sub) {
	if sub.Op == trace.OpWrite {
		if !s.dataless {
			s.Object(sub.Object).WriteAt(sub.Payload, sub.Local)
		}
		s.writeBytes += sub.Bytes
		s.writes++
		return
	}
	if !s.dataless {
		s.Object(sub.Object).ReadAt(sub.Payload, sub.Local)
	}
	s.readBytes += sub.Bytes
	s.reads++
}

// Cancel withdraws the submission. An unstarted tail window is rescinded
// (the server never does the work); a started or covered window burns with
// its commit suppressed. Done receives ErrCancelled in both cases —
// asynchronously for a rescinded window, at the original service-end
// event for a burned one. Cancelling a settled or already cancelled
// submission is a no-op.
func (p *Pending) Cancel() {
	if p == nil || p.settled || p.cancelled {
		return
	}
	p.cancelled = true
	if p.srv.res.Rescind(p.start, p.end) {
		// The service-end event still fires, but Fire sees rescinded and
		// does nothing; Rescind already undid the Reserve accounting. Only
		// a settling speculation race cancels, so the closure is rare.
		p.rescinded = true
		p.settled = true
		s, done := p.srv, p.sub.Done
		s.eng.Schedule(0, func() { done.IODone(s.eng.Now(), ErrCancelled) }) //mhavet:allow closure
	}
}

// Cancelled reports whether Cancel ran.
func (p *Pending) Cancelled() bool { return p != nil && p.cancelled }

// Rescinded reports whether cancellation withdrew the reservation before
// service (false when the window burned or the submission completed).
func (p *Pending) Rescinded() bool { return p != nil && p.rescinded }
