package iopath

import "mhafs/internal/server"

// CancelSet collects the cancellable server submissions of one request
// subtree. The adaptive scheduler attaches a fresh set to each leg of a
// speculation race (Request.Cancels, inherited by every derived child);
// every server submission of the subtree registers its Pending handle
// here (it is the submission's server.Canceller), and the race cancels the
// loser's whole set at settle time.
//
// The set latches: once Cancel has run, every later Add cancels its
// handle immediately — a retry attempt issued after the race settled is
// withdrawn on arrival instead of escaping the race.
type CancelSet struct {
	pending   []*server.Pending
	cancelled bool
}

// NewCancelSet returns an empty set.
func NewCancelSet() *CancelSet { return &CancelSet{} }

// Add registers a submission handle. Nil handles (outage refusals, which
// have nothing to cancel) are ignored; handles added after Cancel are
// cancelled immediately.
func (cs *CancelSet) Add(p *server.Pending) {
	if p == nil {
		return
	}
	if cs.cancelled {
		p.Cancel()
		return
	}
	cs.pending = append(cs.pending, p)
}

// Cancel withdraws every registered submission and latches the set.
func (cs *CancelSet) Cancel() {
	if cs.cancelled {
		return
	}
	cs.cancelled = true
	for i, p := range cs.pending {
		p.Cancel()
		cs.pending[i] = nil
	}
	cs.pending = cs.pending[:0]
}

// Cancelled reports whether Cancel ran.
func (cs *CancelSet) Cancelled() bool { return cs.cancelled }
