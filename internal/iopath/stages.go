package iopath

import (
	"fmt"

	"mhafs/internal/iosig"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

// FileResolver resolves a file name to its metadata record, creating the
// file when the owner's policy allows (the middleware's AutoCreate).
type FileResolver interface {
	ResolveFile(name string) (*pfs.File, error)
}

// Capture is the trace-capture stage (the paper's tracing phase). A nil
// Collector makes it a pass-through, so the slot can stay registered while
// tracing is not wired.
type Capture struct {
	Collector *iosig.Collector
}

// Handle records the request and forwards it unchanged.
func (c *Capture) Handle(req *Request, next Handler) error {
	if col := c.Collector; col != nil && !req.Untraced && req.Size() > 0 {
		col.Record(req.PID, req.Rank, req.FD, req.File, req.Op, req.Offset, req.Size())
	}
	return next(req)
}

// Redirect is the DRT-redirection stage (the paper's redirection phase):
// it translates the request's extent to its reordered locations, charges
// the client-side DRT lookup latency, and fans the request out into one
// child per target extent. The request completes when its slowest child
// completes.
type Redirect struct {
	Redirector *reorder.Redirector
	Files      FileResolver
	Eng        *sim.Engine
}

// Handle splits the request along its DRT targets. Target files are
// resolved synchronously (so configuration errors surface to the caller);
// the children enter the rest of the chain after the lookup latency.
//
// The per-child fan-out allocates (children slice, deferred-dispatch
// closures) by design: redirection runs only in reorganized-layout
// experiments, never in the XL tier's default chain, so it sits outside
// the 0-alloc contract.
//
//mhavet:coldpath DRT redirection is not in the XL hot chain
func (rd *Redirect) Handle(req *Request, next Handler) error {
	r := rd.Redirector
	children, err := req.SplitTargets(r.Resolve(req.File, req.Offset, req.Size()), rd.Files)
	if err != nil {
		return err
	}
	rd.Eng.Schedule(r.LookupTime, func() {
		req.pipe.Exclusive(func() {
			for _, child := range children {
				// Errors cannot occur here: extents were validated and
				// target files resolved before scheduling.
				_ = next(child)
			}
		})
	})
	return nil
}

// Striper is the stripe fan-out stage: it resolves the target file (unless
// a redirect child already carries it) and splits the extent into one
// coalesced sub-request per storage server, exactly as a PFS client does.
// The request completes when its slowest sub-request completes.
type Striper struct {
	Cluster *pfs.Cluster
	Files   FileResolver
}

// Handle fans the request out into server-bound children.
func (s *Striper) Handle(req *Request, next Handler) error {
	f := req.Target
	if f == nil {
		var err error
		f, err = s.Files.ResolveFile(req.File)
		if err != nil {
			return err
		}
		req.Target = f
	}
	var subs []pfs.SubRequest
	if req.Op == trace.OpWrite {
		subs = s.Cluster.PlanWrite(f, req.Offset, req.Data)
	} else {
		subs = s.Cluster.PlanRead(f, req.Offset, req.Data)
	}
	req.fanOut(len(subs))
	for i := range subs {
		sub := &subs[i]
		child := req.child(req.File, req.Offset, sub.Data)
		child.Target = f
		child.SetBinding(ServerBinding{
			Server:  sub.Server,
			Object:  sub.Object,
			Local:   sub.Local,
			Payload: sub.Data,
			Scatter: sub.Scatter,
		})
		if err := next(child); err != nil {
			return err
		}
	}
	return nil
}

// ServerStage is the terminal stage: it hands each server-bound
// sub-request to its storage server, whose model charges the network
// transport and device service time and completes the request.
type ServerStage struct{}

// Handle submits the sub-request; the chain ends here. The request itself
// receives the completion (IODone), so the hot loop allocates no done
// closure, and an injected fault reaching a chain without the resilience
// stages finishes the request with its typed error.
func (ServerStage) Handle(req *Request, next Handler) error {
	if req.Binding == nil {
		return fmt.Errorf("iopath: request for %q reached the server stage without a binding", req.File)
	}
	req.submit(req)
	return nil
}
