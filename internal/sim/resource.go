package sim

import (
	"fmt"
	"math"
)

// Resource is a FIFO single-channel server: requests are serviced one at a
// time in arrival order. Storage servers and their network links are
// Resources in the cluster simulation — a sub-request that arrives while
// the server is busy waits behind the in-flight work, which is how
// multi-process contention (Fig. 9 and Fig. 11 of the paper) arises.
type Resource struct {
	Name string

	eng       *Engine
	busyUntil float64
	inflight  int

	// Accumulated statistics.
	busyTime float64 // total service time performed
	served   uint64  // number of requests completed
}

// NewResource creates a FIFO resource bound to an engine.
func NewResource(eng *Engine, name string) *Resource {
	if eng == nil {
		panic("sim: NewResource with nil engine")
	}
	return &Resource{Name: name, eng: eng}
}

// Acquire enqueues a request with the given service time. done (optional)
// runs at completion with the virtual start and end times of service.
// FIFO semantics: service starts at max(now, end of previous request).
func (r *Resource) Acquire(service float64, done func(start, end float64)) {
	start, end := r.Reserve(service)
	r.eng.At(end, func() {
		r.Complete()
		if done != nil {
			done(start, end)
		}
	})
}

// Reserve claims the next FIFO service window without scheduling the
// completion event, returning the window's virtual start and end. The
// caller must schedule its own event at end and call Complete from it —
// the split exists so pooled submission descriptors can use AtCall and
// keep the whole acquire/complete cycle allocation-free. Accounting is
// identical to Acquire, which is built on it.
func (r *Resource) Reserve(service float64) (start, end float64) {
	if service < 0 || math.IsNaN(service) {
		panic(fmt.Sprintf("sim: resource %s acquire with invalid service time %v", r.Name, service))
	}
	start = r.eng.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + service
	r.busyUntil = end
	r.busyTime += service
	r.inflight++
	return start, end
}

// Complete records the completion of a window claimed with Reserve. It
// must be called exactly once per Reserve, at the window's end event.
func (r *Resource) Complete() {
	r.inflight--
	r.served++
}

// Rescind rolls back a reservation that has not started service, undoing
// its Reserve accounting. Under eager FIFO reservation every later
// arrival's start time was fixed at submission, so only the queue tail can
// be withdrawn: Rescind succeeds exactly when the window is the last one
// reserved (end == BusyUntil) and its service has not begun (start is
// strictly in the future). On success the caller must NOT call Complete
// for the window; its completion event, if already scheduled, must no-op.
// When Rescind reports false the window burns — the device performs the
// work and the caller suppresses only the commit (see server.Pending).
func (r *Resource) Rescind(start, end float64) bool {
	if r.busyUntil != end || start <= r.eng.Now() {
		return false
	}
	r.busyUntil = start
	r.busyTime -= end - start
	r.inflight--
	return true
}

// BusyUntil returns the virtual time at which the queue drains.
func (r *Resource) BusyUntil() float64 { return r.busyUntil }

// Depth returns the number of requests currently queued or in service.
func (r *Resource) Depth() int { return r.inflight }

// BusyTime returns total accumulated service time.
func (r *Resource) BusyTime() float64 { return r.busyTime }

// Served returns the number of completed requests.
func (r *Resource) Served() uint64 { return r.served }

// Barrier waits for n completions and then invokes fn once. It is the
// simulation analogue of MPI_Barrier / waiting for all sub-requests of a
// striped request.
type Barrier struct {
	remaining int
	fn        func()
	fired     bool
}

// NewBarrier creates a barrier expecting n arrivals. n must be positive.
func NewBarrier(n int, fn func()) *Barrier {
	if n <= 0 {
		panic("sim: barrier with non-positive count")
	}
	if fn == nil {
		panic("sim: barrier with nil callback")
	}
	return &Barrier{remaining: n, fn: fn}
}

// Arrive signals one completion; the n-th arrival fires the callback.
// Arrivals beyond n panic — they indicate double-completion bugs.
func (b *Barrier) Arrive() {
	if b.fired {
		panic("sim: barrier arrival after firing")
	}
	b.remaining--
	if b.remaining == 0 {
		b.fired = true
		b.fn()
	}
}

// Remaining returns the arrivals still awaited.
func (b *Barrier) Remaining() int { return b.remaining }
