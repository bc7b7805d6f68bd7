// Package iopath is a fixture mirror of the pipeline's types: the
// analyzer matches Request and slot by package suffix and type name, so
// the stagecheck rules apply here exactly as in the real package.
package iopath

// Request mirrors the descriptor's alias-sensitive fields.
type Request struct {
	Offset     int64
	OnComplete func()
	Binding    int
}

// Handler and Stage mirror the dispatch signature.
type Handler func(*Request) error

type Stage interface {
	Handle(req *Request, next Handler) error
}

type slot struct {
	name  string
	stage Stage
}

// Pipeline mirrors the copy-on-write chain holder and the descriptor
// free list.
type Pipeline struct {
	chain   []slot
	saved   []slot
	freed   []*Request
	scratch []int
}

func (p *Pipeline) register(chain []slot, s Stage) {
	chain[0] = slot{"x", s} //want:stagecheck/chain
	p.saved = chain         //want:stagecheck/chain
}

func extend(chain []slot, s Stage) []slot {
	return append(chain, slot{"y", s}) //want:stagecheck/chain
}

func dispatchCopy(chain []slot) []slot {
	cp := make([]slot, len(chain))
	copy(cp, chain)
	local := chain // a local alias does not outlive the dispatch
	_ = local
	return cp
}

func derive(parent *Request) *Request {
	child := &Request{
		Offset:     parent.Offset,
		OnComplete: parent.OnComplete, //want:stagecheck/alias
	}
	child.Binding = parent.Binding //want:stagecheck/alias
	return child
}

func wrap(req *Request) {
	prev := req.OnComplete
	req.OnComplete = func() { prev() } // wrapping your own callback is sanctioned
}

// The descriptor free list, mirroring the pooled hot path: poolcheck
// holds every put site to the Reset-before-put contract.

func (r *Request) Reset() { *r = Request{} }

func (p *Pipeline) put(r *Request) { p.freed = append(p.freed, r) }

func release(p *Pipeline, r *Request) {
	r.Reset()
	p.put(r) // Reset first: the sanctioned recycle path
}

func recycleStale(p *Pipeline, r *Request) {
	p.put(r) //want:poolcheck/reset
}

func resetTooLate(p *Pipeline, r *Request) {
	p.put(r) //want:poolcheck/reset
	r.Reset()
}

func deferredRecycle(p *Pipeline, r *Request) func() {
	r.Reset()
	// Reset credit must not cross the closure boundary: the put runs
	// later, when the descriptor may be live again.
	return func() { p.put(r) } //want:poolcheck/reset
}
