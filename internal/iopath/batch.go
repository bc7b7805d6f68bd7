package iopath

import (
	"fmt"

	"mhafs/internal/server"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// Batcher coalesces server-bound sub-requests into single service events.
// It models request aggregation in the client I/O stack: sub-requests
// issued at the same virtual instant that address contiguous ranges of the
// same server object are submitted as one merged operation, paying the
// per-message overhead once.
//
// The batching contract:
//
//   - Scope: one flush covers the sub-requests enqueued within one
//     aggregation window — the first enqueue arms a flush event `window`
//     virtual seconds out (zero means the same instant, after every event
//     already queued there), and everything enqueued before it fires
//     flushes together. Window boundaries are virtual-time arithmetic and
//     event order is deterministic, so the flush boundary — and therefore
//     every merge decision — is too. A positive window trades up to that
//     much added latency per batch for larger merges, the block-layer
//     plugging / write-gathering trade.
//   - Merging: the flush groups the queue by (op, server, object) in
//     first-arrival order and then merges adjacent entries of a group
//     while each starts where the previous one ended (local offset
//     continuity). Round-robin striping interleaves servers in dispatch
//     order, so a striped request's per-server pieces only become
//     adjacent, and therefore mergeable, under this grouping. Groups are
//     small — one extent per client in a typical flush — so restoring
//     ascending local order costs an insertion sort per group, not a
//     comparison sort of the whole queue.
//   - Completion: the merged request is submitted through the rest of the
//     chain (composing with the retry stage); when it finishes, every
//     member finishes at the merged end time, inheriting a terminal error
//     if the whole batch failed. Members never touch the server
//     themselves.
//   - Pass-through: a batch of one is dispatched unmerged, and
//     byte-storing servers are never merged (a merged write would have to
//     gather member payloads); batching is an XL-tier optimization and
//     assumes dataless servers.
//
// Batching changes the modeled cost — fewer, larger service events — so it
// is opt-in and stays out of the paper-figure pipelines.
type Batcher struct {
	eng    *sim.Engine
	pipe   *Pipeline
	window float64

	next    Handler
	queue   []*Request
	groups  []batchGroup
	armed   bool
	flushFn func()
}

// batchGroup collects one flush's sub-requests for a single
// (op, server, object) key, in arrival order. The slots and their reqs
// slices are reused across flushes.
type batchGroup struct {
	op     trace.Op
	server *server.Server
	object string
	reqs   []*Request
}

// NewBatcher creates the stage for a pipeline; window is the aggregation
// window in virtual seconds (0 flushes at the enqueueing instant).
// Register it with p.Set(StageBatch, b); it lands between stripe and
// server.
func NewBatcher(p *Pipeline, window float64) *Batcher {
	if p == nil {
		panic("iopath: batcher needs a pipeline")
	}
	if window < 0 {
		panic(fmt.Sprintf("iopath: negative batch window %g", window))
	}
	b := &Batcher{eng: p.Engine(), pipe: p, window: window}
	b.flushFn = func() {
		b.armed = false
		b.flush()
	}
	return b
}

// Handle enqueues the sub-request and, if no flush is armed, arms one a
// window past the current instant. With a zero window the event fires
// after every event already queued at this time, so all sub-requests
// issued at the instant flush together; with a positive window everything
// enqueued before the flush fires joins the batch.
func (b *Batcher) Handle(req *Request, next Handler) error {
	if req.Binding == nil {
		return fmt.Errorf("iopath: request for %q reached the batch stage without a binding", req.File)
	}
	b.next = next
	b.queue = append(b.queue, req)
	if !b.armed {
		b.armed = true
		b.eng.AtCall(b.eng.Now()+b.window, b)
	}
	return nil
}

// Fire runs the flush event under the submission lock, like every stage
// re-entering the chain from a scheduled event.
func (b *Batcher) Fire() { b.pipe.Exclusive(b.flushFn) }

// flush groups the queued sub-requests by (op, server, object), merges
// each group's contiguous runs, and dispatches them. Callers hold the
// submission lock.
//
// Grouping is a linear scan over a handful of keys (ops × servers × open
// objects of one flush), cheaper than sorting the queue. Within a group
// each client contributes one coalesced extent, but clients issue in the
// order the previous barrier released them, so arrival order is only
// nearly ascending; a per-group insertion sort on local offset restores
// it with plain integer compares. The run loop still verifies
// continuity, so any residual disorder only costs a missed merge, never
// a wrong one.
func (b *Batcher) flush() {
	groups := b.groups[:0]
	for _, r := range b.queue {
		bb := r.Binding
		if !bb.Server.IsDataless() {
			// Byte-storing servers are never merged; dispatch in place.
			_ = b.next(r)
			continue
		}
		gi := -1
		for i := range groups {
			g := &groups[i]
			if g.op == r.Op && g.server == bb.Server && g.object == bb.Object {
				gi = i
				break
			}
		}
		if gi < 0 {
			// Extend into spare capacity by hand so each slot's reqs
			// slice keeps its backing array across flushes.
			if cap(groups) > len(groups) {
				groups = groups[:len(groups)+1]
			} else {
				groups = append(groups, batchGroup{})
			}
			gi = len(groups) - 1
			g := &groups[gi]
			g.op, g.server, g.object = r.Op, bb.Server, bb.Object
			g.reqs = g.reqs[:0]
		}
		groups[gi].reqs = append(groups[gi].reqs, r)
	}
	// Dispatch errors cannot occur past this stage: the terminal stages
	// error only on a nil binding, checked at enqueue, and merged requests
	// are always bound.
	for gi := range groups {
		q := groups[gi].reqs
		for i := 1; i < len(q); i++ {
			r := q[i]
			j := i
			for j > 0 && q[j-1].Binding.Local > r.Binding.Local {
				q[j] = q[j-1]
				j--
			}
			q[j] = r
		}
		i := 0
		for i < len(q) {
			base := q[i]
			bb := base.Binding
			end := bb.Local + bb.bytes()
			j := i + 1
			for j < len(q) {
				nb := q[j].Binding
				if nb.Local != end {
					break
				}
				end += nb.bytes()
				j++
			}
			if j == i+1 {
				_ = b.next(base)
			} else {
				merged := b.pipe.get()
				merged.Op, merged.File, merged.Offset = base.Op, base.File, base.Offset
				merged.Rank, merged.PID, merged.FD = base.Rank, base.PID, base.FD
				merged.Untraced, merged.Submit = true, base.Submit
				merged.Target = base.Target
				merged.SetBinding(ServerBinding{
					Server: bb.Server,
					Object: bb.Object,
					Local:  bb.Local,
					Bytes:  end - bb.Local,
				})
				for k := i; k < j-1; k++ {
					q[k].batchNext = q[k+1]
				}
				merged.batchNext = q[i]
				_ = b.next(merged)
			}
			i = j
		}
		for k := range q {
			q[k] = nil
		}
		groups[gi].reqs = q[:0]
	}
	b.groups = groups
	for k := range b.queue {
		b.queue[k] = nil
	}
	b.queue = b.queue[:0]
}
