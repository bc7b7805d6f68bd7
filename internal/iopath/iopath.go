// Package iopath is the staged I/O request pipeline: the single path every
// independent read and write takes from the client middleware down to the
// simulated servers.
//
// The paper's five phases used to be wired ad hoc — the middleware held a
// Collector field, a Redirector field, and called straight into the
// parallel file system. iopath replaces that plumbing with one Request
// descriptor flowing through an ordered chain of Stage values:
//
//		trace ──▶ (interceptors…) ──▶ redirect ──▶ adaptive ──▶ resilience
//		      ──▶ stripe ──▶ batch ──▶ server
//
//	  - trace      — capture the request into the I/O Collector (tracing
//	    phase);
//	  - redirect   — translate the extent through the Data Reordering
//	    Table, charging the DRT lookup latency (redirection phase);
//	  - adaptive   — route region extents around lagging servers
//	    (internal/adaptive, opt-in);
//	  - resilience — route region extents around down servers (opt-in);
//	  - stripe     — resolve the target file and fan the extent out into
//	    one coalesced sub-request per storage server;
//	  - batch      — merge contiguous sub-requests into one service event
//	    (opt-in);
//	  - server     — submit each sub-request to its server, whose model
//	    covers the network transport and device service time.
//
// The pipeline owns that order (chainOrder): Set installs or replaces a
// built-in stage in its slot, and Intercept adds a cross-cutting concern
// (metrics, request counting, QoS, replay instrumentation) as an
// interceptor between trace and redirect. Callers name stages and never
// positions, so schemes install and remove stages at run time without
// the layers knowing about each other.
//
// Determinism contract: stages forward synchronously unless they model a
// latency (the redirect stage schedules its fan-out after the DRT lookup
// time, exactly as the unstaged code did), so a pipeline of the default
// stages produces bit-for-bit the same virtual-time results as the
// hard-wired path it replaced.
package iopath

import (
	"fmt"
	"sync"

	"mhafs/internal/pfs"
	"mhafs/internal/region"
	"mhafs/internal/server"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// Request is the descriptor that flows through the stage chain. The
// middleware submits one Request per application operation; stages derive
// child Requests when they split the work (redirection into region
// extents, striping into per-server sub-requests).
type Request struct {
	Op     trace.Op
	File   string // file name as seen at this stage (logical, then region)
	Offset int64  // offset within File
	Data   []byte // payload for writes, destination buffer for reads

	// Client identity, as the tracing phase records it.
	Rank int
	PID  int
	FD   int

	// Untraced suppresses trace capture — set on the aggregated
	// file-domain requests of collective I/O, whose logical per-rank
	// pieces are recorded separately.
	Untraced bool

	// Submit and Complete are the request's virtual-time bounds: stamped
	// on pipeline entry and when the slowest piece finishes.
	Submit   float64
	Complete float64

	// Target is the resolved file metadata record; the redirect stage
	// pre-resolves it for its children, the stripe stage resolves it for
	// direct requests.
	Target *pfs.File

	// Binding is set by the stripe stage on per-server children and
	// consumed by the terminal server stage.
	Binding *ServerBinding

	// Err is the request's terminal error, set (before OnComplete runs)
	// when resilience is exhausted: retries ran out or no failover target
	// exists. Fan-out stages propagate the first child error to their
	// parent. A healthy pipeline never sets it.
	Err error

	// OnComplete, when non-nil, receives the virtual completion time of
	// the slowest piece. Stages may wrap it to observe completion.
	OnComplete func(end float64)

	// Cancels, when non-nil, marks the request (and every child derived
	// from it) as withdrawable: the terminal stages submit it
	// cancellably and the servers register the resulting handles here,
	// so the owner — the adaptive scheduler's speculation race — can
	// cancel the whole subtree when the other copy wins. Nil on every
	// ordinary request.
	Cancels *CancelSet

	pipe *Pipeline

	// Fan-out bookkeeping. A stage that splits a request presets fanOpen
	// to the child count (fanOut); each child's Finish folds its end time
	// and error into the parent (fanArrive), and the last arrival
	// completes it. This replaces the historical per-child closure +
	// sim.Barrier pattern with fields on the descriptor itself, so the
	// fan-out hot loop allocates nothing per child.
	parent    *Request
	fanOpen   int
	fanLatest float64

	// pooled marks descriptors owned by the pipeline's free list; Finish
	// recycles them (Reset + release) once nothing can observe them again.
	pooled bool

	// binding is the inline storage SetBinding points the Binding field
	// at, so a per-server child needs no separate ServerBinding
	// allocation. It is never shared between requests: Reset clears both.
	binding ServerBinding

	// batchNext links batched sub-requests. On a merged request it heads
	// the list of member requests the batch coalesced; on a member it
	// links to the next member. Finish on the merged request fans its
	// completion back to every member (see Batcher).
	batchNext *Request
}

// Size returns the request length in bytes.
func (r *Request) Size() int64 { return int64(len(r.Data)) }

// Finish stamps the completion time and runs the completion callback.
// Exactly one stage must call it per request.
//
// Order matters and is pinned by the golden telemetry: the completion
// callback chain (recorders, stage timers, the caller's done) observes
// the request first, exactly as it did when fan-out stages wrapped
// OnComplete; only then is the completion folded into the parent — which
// may recursively finish it — and only after that is a pooled descriptor
// recycled, when nothing can observe it again.
func (r *Request) Finish(end float64) {
	r.Complete = end
	if r.OnComplete != nil {
		r.OnComplete(end)
	}
	// A merged batch completes its members: every coalesced sub-request
	// finished in the same service event, so each member finishes at the
	// merged end time (and inherits a merged terminal error). The link is
	// severed before the member finishes — members are themselves pooled
	// and must not walk each other.
	for m := r.batchNext; m != nil; {
		next := m.batchNext
		m.batchNext = nil
		if r.Err != nil && m.Err == nil {
			m.Err = r.Err
		}
		m.Finish(end)
		m = next
	}
	r.batchNext = nil
	parent, pooled := r.parent, r.pooled
	if parent != nil {
		parent.fanArrive(r.Err, end)
	}
	if pooled {
		r.release()
	}
}

// fanOut arms the request to complete after n derived children finish.
// Like sim.NewBarrier, a non-positive count is a wiring bug.
func (r *Request) fanOut(n int) {
	if n <= 0 {
		panic("iopath: fan-out over no children")
	}
	if r.fanOpen != 0 {
		panic("iopath: nested fan-out on one request")
	}
	r.fanOpen = n
}

// fanArrive folds one child completion into the fan-out parent: the
// slowest end time wins, the first child error wins, and the last arrival
// finishes the parent. Arrivals beyond the armed count panic — they
// indicate double-completion bugs, exactly as sim.Barrier did.
func (r *Request) fanArrive(childErr error, end float64) {
	if r.fanOpen <= 0 {
		panic("iopath: fan-out arrival after completion")
	}
	if end > r.fanLatest {
		r.fanLatest = end
	}
	if childErr != nil && r.Err == nil {
		r.Err = childErr
	}
	r.fanOpen--
	if r.fanOpen == 0 {
		r.Finish(r.fanLatest)
	}
}

// FinishErr completes the request with a terminal error. The completion
// callback still runs — barriers upstream must not deadlock on a failed
// piece — with the error visible on the request first.
func (r *Request) FinishErr(end float64, err error) {
	r.Err = err
	r.Finish(end)
}

// child derives a Request that inherits the parent's identity and pipeline
// but addresses a different extent. Children come from the pipeline's
// descriptor pool and are recycled when they finish; the deriving stage
// must arm the parent with fanOut before dispatching them.
func (r *Request) child(file string, off int64, data []byte) *Request {
	c := r.pipe.get()
	c.Op, c.File, c.Offset, c.Data = r.Op, file, off, data
	c.Rank, c.PID, c.FD = r.Rank, r.PID, r.FD
	c.Untraced, c.Submit = r.Untraced, r.Submit
	c.Cancels = r.Cancels
	c.parent = r
	return c
}

// SplitTargets derives one pooled child per target extent, each bound to
// its resolved file and to the matching slice of the request's data,
// checks that the targets cover the request byte for byte, and arms the
// fan-out over the children: the request completes with the slowest.
// The caller dispatches the returned children itself. It is the one
// translate-and-fan-out step of the redirect and failover stages and the
// adaptive scheduler's relocation tables.
//
// The children slice allocates by design: translation fan-out runs only
// over relocated extents, outside the XL tier's 0-alloc contract.
//
//mhavet:coldpath translation fan-out runs only over relocated extents
func (r *Request) SplitTargets(targets []region.Target, files FileResolver) ([]*Request, error) {
	children := make([]*Request, 0, len(targets))
	var cursor int64
	for _, tg := range targets {
		f, err := files.ResolveFile(tg.File)
		if err != nil {
			return nil, err
		}
		child := r.child(tg.File, tg.Offset, r.Data[cursor:cursor+tg.Size])
		child.Target = f
		children = append(children, child)
		cursor += tg.Size
	}
	if cursor != r.Size() {
		return nil, fmt.Errorf("iopath: targets covered %d of %d bytes", cursor, r.Size())
	}
	r.fanOut(len(children))
	return children, nil
}

// Derive derives a pooled child without the parent link: the leg
// completes on its own and never folds into r. The adaptive scheduler's
// speculation race uses it for the two racing copies of a piece — the
// race decides r's completion from whichever leg finishes first, so
// neither leg may drive r's fan-out directly (the loser would drag r's
// completion out to its own, possibly cancelled-and-burned, end time).
// Callers observe a leg through OnComplete; the leg's descriptor
// recycles itself when done.
func (r *Request) Derive(file string, off int64, data []byte) *Request {
	c := r.child(file, off, data)
	c.parent = nil
	return c
}

// Pipeline returns the pipeline the request flows through (set on Submit
// and on derived children). External stages use it to re-enter the chain
// from scheduled events via Exclusive.
func (r *Request) Pipeline() *Pipeline { return r.pipe }

// Reset clears the descriptor for reuse. Every pooled request must pass
// through Reset on its way back to the free list (mhavet's poolcheck
// enforces this at the put sites): a stale OnComplete, parent link or
// binding on a recycled descriptor would fire another request's
// completion or route to another request's server placement.
func (r *Request) Reset() {
	*r = Request{}
}

// release recycles a finished pooled descriptor into its pipeline's free
// list. The caller guarantees nothing can observe the request anymore:
// its completion chain has run and its parent bookkeeping is done.
func (r *Request) release() {
	p := r.pipe
	r.Reset()
	p.put(r)
}

// SetBinding installs the server routing for a sub-request in the
// request's inline storage, avoiding a per-child ServerBinding
// allocation. The binding is owned by this request alone.
func (r *Request) SetBinding(b ServerBinding) {
	r.binding = b
	r.Binding = &r.binding
}

// IODone implements server.Done: a server completes the sub-request by
// handing the descriptor back instead of calling a per-request closure.
// A successful read scatters its landed bytes first (dataless plans carry
// no scatter); an error finishes the request with it.
func (r *Request) IODone(end float64, err error) {
	if err != nil {
		r.FinishErr(end, err)
		return
	}
	if b := r.Binding; b != nil && b.Scatter != nil {
		b.Scatter()
	}
	r.Finish(end)
}

// submit hands the bound sub-request to its server, which completes it
// through done. Requests of a speculation-race leg (Cancels set) submit
// withdrawably.
func (r *Request) submit(done server.Done) {
	b := r.Binding
	sub := server.Sub{
		Op:      r.Op,
		Object:  b.Object,
		Local:   b.Local,
		Bytes:   b.bytes(),
		Payload: b.Payload,
		Done:    done,
	}
	if r.Cancels != nil {
		// Set only when present: a nil *CancelSet in the interface field
		// would read as a non-nil Canceller.
		sub.Cancels = r.Cancels
	}
	b.Server.Submit(sub)
}

// ServerBinding routes a per-server sub-request: which server, which
// server-side object, where in it, and what bytes.
type ServerBinding struct {
	Server *server.Server
	Object string
	Local  int64
	// Payload is the gathered write payload or the read landing buffer.
	Payload []byte
	// Scatter, for reads, copies the landed bytes back into the caller's
	// buffer; IODone runs it before reporting completion.
	Scatter func()
	// Bytes is the explicit byte count of bindings that carry no payload
	// (merged batch submissions on dataless servers); when zero the
	// payload length rules.
	Bytes int64
}

// bytes returns the sub-request's byte count.
func (b *ServerBinding) bytes() int64 {
	if b.Bytes > 0 {
		return b.Bytes
	}
	return int64(len(b.Payload))
}

// Handler forwards a request to the remainder of the chain.
type Handler func(*Request) error

// Stage is one link of the pipeline. Handle must either call next
// (possibly on derived child requests, possibly from a later scheduled
// event) or complete the request itself.
type Stage interface {
	Handle(req *Request, next Handler) error
}

// StageFunc adapts a function to a Stage.
type StageFunc func(*Request, Handler) error

// Handle implements Stage.
func (f StageFunc) Handle(req *Request, next Handler) error { return f(req, next) }

// The built-in stage names.
const (
	StageTrace      = "trace"
	StageRedirect   = "redirect"
	StageAdaptive   = "adaptive"
	StageResilience = "resilience"
	StageStripe     = "stripe"
	StageBatch      = "batch"
	StageServer     = "server"
)

// chainOrder is the canonical stage order, the one place it is written
// down. The empty entry is the interceptor slot: every name not listed
// is an interceptor and sits there, in registration order.
var chainOrder = [...]string{
	StageTrace,
	"", // interceptors
	StageRedirect,
	StageAdaptive,
	StageResilience,
	StageStripe,
	StageBatch,
	StageServer,
}

// rank returns the name's position in chainOrder and whether it is a
// built-in stage; interceptors share the empty entry's position.
func rank(name string) (int, bool) {
	interceptor := 0
	for i, n := range chainOrder {
		if n == "" {
			interceptor = i
		} else if n == name {
			return i, true
		}
	}
	return interceptor, false
}

// slot is one named link of the chain.
type slot struct {
	name  string
	stage Stage
}

// chain is an immutable snapshot of the stage sequence plus one prebuilt
// next handler per link. Handlers are constructed once at registration
// time (the cold path), so the dispatch hot loop passes stages a ready
// Handler instead of allocating a fresh closure per stage hop. In-flight
// requests continue on the chain they were submitted into: registration
// builds a new chain and never mutates a published one.
type chain struct {
	slots []slot
	nexts []Handler
}

// Observer receives a callback when a request enters each stage, always
// under the pipeline's submission lock. Observers that also want the
// request's eventual completion wrap req.OnComplete from StageEnter, the
// sanctioned Recorder pattern.
type Observer interface {
	StageEnter(stage string, req *Request)
}

// Pipeline is an ordered, named chain of stages. Registration addresses
// stages by name and the pipeline places them in the canonical order;
// Submit pushes a request through the chain front to back.
//
// Submission is safe for concurrent use: the whole synchronous part of a
// submission runs under one lock, so independent clients may submit from
// separate goroutines. Driving the simulation engine remains
// single-threaded, as the engine requires.
type Pipeline struct {
	eng *sim.Engine

	mu    sync.Mutex
	chain *chain
	obs   Observer

	// The descriptor free list. It has its own lock because requests are
	// recycled from completion callbacks, which run from engine events
	// outside the submission lock, while children are acquired during
	// dispatch under it.
	poolMu sync.Mutex
	freed  []*Request
}

// NewPipeline creates an empty pipeline over the simulation engine.
func NewPipeline(eng *sim.Engine) *Pipeline {
	if eng == nil {
		panic("iopath: nil engine")
	}
	p := &Pipeline{eng: eng}
	p.chain = p.buildChain(nil)
	return p
}

// get acquires a blank pooled descriptor bound to this pipeline.
func (p *Pipeline) get() *Request {
	p.poolMu.Lock()
	var r *Request
	if n := len(p.freed); n > 0 {
		r = p.freed[n-1]
		p.freed[n-1] = nil
		p.freed = p.freed[:n-1]
	}
	p.poolMu.Unlock()
	if r == nil {
		// Pool miss: steady state recycles descriptors through the free
		// list, so this allocation amortizes to zero per op.
		r = &Request{} //mhavet:allow literal
	}
	r.pipe = p
	r.pooled = true
	return r
}

// put returns a Reset descriptor to the free list. Callers go through
// Request.release, which resets first — mhavet's poolcheck flags any put
// without a preceding Reset.
func (p *Pipeline) put(r *Request) {
	p.poolMu.Lock()
	p.freed = append(p.freed, r)
	p.poolMu.Unlock()
}

// NewRequest returns a blank pooled root descriptor bound to the
// pipeline. The pipeline recycles it when it finishes: callers populate
// it, Submit it, and must not retain it past their OnComplete.
func (p *Pipeline) NewRequest() *Request { return p.get() }

// Engine returns the pipeline's simulation engine.
func (p *Pipeline) Engine() *sim.Engine { return p.eng }

func (p *Pipeline) indexOf(name string) int {
	for i, s := range p.chain.slots {
		if s.name == name {
			return i
		}
	}
	return -1
}

// buildChain publishes a fresh chain snapshot over the given slots,
// prebuilding the per-link next handlers. Runs at registration time only.
func (p *Pipeline) buildChain(slots []slot) *chain {
	c := &chain{slots: slots, nexts: make([]Handler, len(slots))}
	for i := range slots {
		next := i + 1
		c.nexts[i] = func(r *Request) error {
			if r.pipe == nil {
				r.pipe = p
			}
			return p.dispatch(c, r, next)
		}
	}
	return c
}

// Set installs s under name, or replaces the stage already registered
// under it in place. A new built-in stage lands in its slot of the
// canonical order; any other name is an interceptor and lands after
// trace and every interceptor registered before it.
func (p *Pipeline) Set(name string, s Stage) error {
	return p.place(name, s, false)
}

// Intercept adds a new interceptor stage after trace and every earlier
// interceptor, before the built-in stages that follow them. It refuses a
// built-in name and a name already registered.
func (p *Pipeline) Intercept(name string, s Stage) error {
	return p.place(name, s, true)
}

// place is the one registration step. Registration is copy-on-write:
// in-flight requests hold the chain they were submitted into, so a stage
// continuing a request from a scheduled event is never re-routed by
// later registration changes.
func (p *Pipeline) place(name string, s Stage, fresh bool) error {
	if name == "" {
		return fmt.Errorf("iopath: empty stage name")
	}
	if s == nil {
		return fmt.Errorf("iopath: nil stage %q", name)
	}
	r, builtin := rank(name)
	if fresh && builtin {
		return fmt.Errorf("iopath: %q is a built-in stage, not an interceptor", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.chain.slots
	at := p.indexOf(name)
	if at >= 0 && fresh {
		return fmt.Errorf("iopath: stage %q already registered", name)
	}
	ns := make([]slot, 0, len(old)+1)
	if at >= 0 {
		ns = append(ns, old...)
		ns[at].stage = s
	} else {
		at = len(old)
		for i := range old {
			if ri, _ := rank(old[i].name); ri > r {
				at = i
				break
			}
		}
		ns = append(ns, old[:at]...)
		ns = append(ns, slot{name: name, stage: s})
		ns = append(ns, old[at:]...)
	}
	p.chain = p.buildChain(ns)
	return nil
}

// Remove deletes the named stage, reporting whether it was present.
func (p *Pipeline) Remove(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.indexOf(name)
	if i < 0 {
		return false
	}
	old := p.chain.slots
	ns := make([]slot, 0, len(old)-1)
	ns = append(ns, old[:i]...)
	ns = append(ns, old[i+1:]...)
	p.chain = p.buildChain(ns)
	return true
}

// SetObserver installs (or, with nil, clears) the pipeline's stage
// observer. Configuration is not safe concurrently with submission, like
// stage registration.
func (p *Pipeline) SetObserver(o Observer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = o
}

// Names returns the stage names in chain order.
func (p *Pipeline) Names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.chain.slots))
	for i, s := range p.chain.slots {
		out[i] = s.name
	}
	return out
}

// Submit stamps the request and pushes it through the chain. The
// synchronous portion of every stage runs before Submit returns; stages
// that model latency complete the request through later engine events.
func (p *Pipeline) Submit(req *Request) error {
	if req == nil {
		return fmt.Errorf("iopath: nil request")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	req.pipe = p
	req.Submit = p.eng.Now()
	return p.dispatch(p.chain, req, 0)
}

// Exclusive runs fn holding the pipeline's submission lock. Stages use it
// to re-enter the chain from a scheduled event; the middleware uses it for
// metadata operations sharing state with submission. fn must not call
// Submit or registration methods.
func (p *Pipeline) Exclusive(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn()
}

// dispatch runs the stage at index i of the chain snapshot, handing it
// the snapshot's prebuilt next handler, which continues at i+1. Requests
// derived by a stage continue downstream of it — they do not restart the
// chain. The observer (read under the submission lock dispatch already
// runs beneath) sees every stage entry.
func (p *Pipeline) dispatch(c *chain, req *Request, i int) error {
	if i >= len(c.slots) {
		return fmt.Errorf("iopath: request for %q fell off the end of the chain", req.File)
	}
	s := &c.slots[i]
	if o := p.obs; o != nil {
		o.StageEnter(s.name, req)
	}
	return s.stage.Handle(req, c.nexts[i])
}
