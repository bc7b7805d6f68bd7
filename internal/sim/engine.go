// Package sim is a small deterministic discrete-event simulation engine.
//
// The MHA paper measures wall-clock I/O time on a physical cluster; this
// repository replaces the cluster with a virtual-time simulation. The
// engine maintains a clock and a priority queue of events; each event is a
// callback executed at its scheduled virtual time. Ties are broken by a
// monotonically increasing sequence number so runs are bit-for-bit
// reproducible regardless of map iteration order or goroutine scheduling —
// the engine is single-threaded by design.
package sim

import (
	"fmt"
	"math"
)

// Callback is the interface form of a scheduled event: AtCall fires
// Fire() at the event's time. A pooled descriptor implementing Callback
// schedules without the per-event closure allocation func-based At pays —
// converting a pointer to an interface does not allocate.
type Callback interface {
	Fire()
}

// event is a scheduled callback, either a func (fn) or a Callback value
// (call) — exactly one is set. timer, when non-nil, is the cancellable
// Timer wrapping this event: Step consults it instead of the callback so a
// stopped timer costs no call, and heap compaction can identify dead
// events without running anything.
type event struct {
	time  float64
	seq   uint64
	fn    func()
	call  Callback
	timer *Timer
}

// dead reports whether the event is a cancelled timer occupying the heap.
func (e event) dead() bool { return e.timer != nil && e.timer.stopped }

// eventHeap is a concrete-typed binary min-heap of events ordered by
// (time, seq), inlined instead of container/heap: the interface-based
// heap boxes every pushed and popped event into an `any`, one allocation
// each way, in the simulator's single hottest loop. The slice's capacity
// is retained across pop/push cycles, so a steady-state Schedule/Step
// pair allocates nothing.
type eventHeap []event

// less orders by (time, seq); seq breaks ties so execution order is
// bit-for-bit reproducible.
func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// push appends e and sifts it up to its heap position.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum event. The caller must check
// emptiness first.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the callback reference so it can be collected
	q = q[:n]
	q.siftDown(0)
	*h = q
	return top
}

// siftDown restores the heap property below index i.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Engine is a discrete-event simulator clock plus pending-event queue.
// The zero value is ready to use at time 0.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	fired  uint64

	// dead counts cancelled timer events still occupying the heap; when
	// they pile past compactDeadMin and outnumber half the heap, the heap
	// is compacted in place (see compactDead).
	dead int
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled but not yet executed live
// events. Cancelled timers awaiting their time (or compaction) are not
// counted: they can no longer run anything.
func (e *Engine) Pending() int { return len(e.events) - e.dead }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn after delay seconds of virtual time. Negative or NaN
// delays panic: they indicate a bug in a latency model.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: schedule with invalid delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, fn: fn})
}

// AtCall schedules c.Fire() at absolute virtual time t, which must not be
// in the past. It is At for pooled descriptors: no closure is allocated,
// so a steady-state submit/fire cycle over reused Callback values is
// allocation-free.
func (e *Engine) AtCall(t float64, c Callback) {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if c == nil {
		panic("sim: schedule nil callback")
	}
	e.seq++
	e.events.push(event{time: t, seq: e.seq, call: c})
}

// Step executes the next event, advancing the clock to its time. It
// reports whether an event was executed. A cancelled timer's event still
// advances the clock and counts as fired (the historical no-op firing),
// but its callback is skipped.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	e.fired++
	if t := ev.timer; t != nil {
		if t.stopped {
			e.dead--
			return true
		}
		t.fired = true
	}
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.call.Fire()
	}
	return true
}

// compactDeadMin is the dead-event floor below which compaction is not
// worth the rebuild: cancelled timers are cheap to fire as no-ops, the
// pathology is thousands of them piling up front of far-future deadlines.
const compactDeadMin = 256

// compactDead removes cancelled timer events from the heap in place and
// restores the heap property. Execution order is untouched: the heap pops
// by total order (time, seq) regardless of layout, and dead events run
// nothing. Called when dead events exceed compactDeadMin and at least
// half the heap.
func (e *Engine) compactDead() {
	src := e.events
	kept := src[:0]
	for _, ev := range src {
		if ev.dead() {
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(src); i++ {
		src[i] = event{} // drop callback references for collection
	}
	e.events = kept
	e.dead = 0
	for i := len(kept)/2 - 1; i >= 0; i-- {
		e.events.siftDown(i)
	}
}

// timerStopped records a timer cancellation and compacts the heap when
// dead events dominate it.
func (e *Engine) timerStopped() {
	e.dead++
	if e.dead >= compactDeadMin && e.dead*2 >= len(e.events) {
		e.compactDead()
	}
}

// Run executes events until the queue drains and returns the final clock.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// peek returns the (time, seq) key of the next event without executing
// it. ok is false when the queue is empty. The sharded runner uses it to
// merge independent engine timelines in deterministic key order.
func (e *Engine) peek() (time float64, seq uint64, ok bool) {
	if len(e.events) == 0 {
		return 0, 0, false
	}
	return e.events[0].time, e.events[0].seq, true
}
