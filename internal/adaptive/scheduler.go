package adaptive

import (
	"fmt"

	"mhafs/internal/iopath"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/sim"
	"mhafs/internal/stripe"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// Scheduler is the straggler-aware iopath stage (StageAdaptive). On every
// request it refreshes the estimator, translates the extent through its
// own failover tables (relocations it performed earlier), and decides per
// write piece:
//
//	confident straggler on the stripe path  → reroute (permanent remap)
//	long predicted wait on a lagging server → speculative re-issue (race)
//	otherwise                               → pass through untouched
//
// The pass-through path is the common case and allocation-free; both
// interventions are coldpaths. Reads are never rerouted or raced — a
// read's bytes live where they were written, so redirecting one would
// read the wrong replica; reads still benefit because writes migrate off
// the straggler and the translated layout serves subsequent reads.
//
// The scheduler owns a reorder.Failover layer distinct from the
// resilience stage's: adaptive relocations and outage failovers keep
// separate tables, and the adaptive translation runs first (the stage
// sits before resilience), so a relocated piece can still fail over if
// its new home goes down.
type Scheduler struct {
	eng     *sim.Engine
	cluster *pfs.Cluster
	files   iopath.FileResolver
	fo      *reorder.Failover
	pol     Policy
	est     *Estimator

	// scratch backs the per-request stripe split; the scan extracts what
	// it needs before any recursion reuses it.
	scratch []stripe.SubRequest

	reroutes      *telemetry.Counter
	speculations  *telemetry.Counter
	specWins      *telemetry.Counter
	specCancelled *telemetry.Counter
}

// NewScheduler wires the stage. fo is the scheduler's private failover
// layer (its relocation tables); the caller builds it over the same
// cluster, typically passing the placement's RST so relocated layouts are
// visible next to the optimized ones.
func NewScheduler(c *pfs.Cluster, files iopath.FileResolver, fo *reorder.Failover, pol Policy) (*Scheduler, error) {
	switch {
	case c == nil:
		return nil, fmt.Errorf("adaptive: scheduler needs a cluster")
	case files == nil:
		return nil, fmt.Errorf("adaptive: scheduler needs a file resolver")
	case fo == nil:
		return nil, fmt.Errorf("adaptive: scheduler needs a failover layer")
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		eng:     c.Eng,
		cluster: c,
		files:   files,
		fo:      fo,
		pol:     pol,
		est:     NewEstimator(c, pol.Alpha),
	}, nil
}

// SetTelemetry installs (or, with nil, removes) a registry for the
// scheduler's action counters, registered eagerly so a run that never
// acted still exports them at zero.
func (s *Scheduler) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.reroutes, s.speculations, s.specWins, s.specCancelled = nil, nil, nil, nil
		return
	}
	s.reroutes = reg.Counter(MetricReroutes)
	s.speculations = reg.Counter(MetricSpeculations)
	s.specWins = reg.Counter(MetricSpecWins)
	s.specCancelled = reg.Counter(MetricSpecCancelled)
}

// Estimator exposes the latency estimator (tests and diagnostics).
func (s *Scheduler) Estimator() *Estimator { return s.est }

// Failover exposes the scheduler's relocation tables (tests).
func (s *Scheduler) Failover() *reorder.Failover { return s.fo }

// Handle implements iopath.Stage.
func (s *Scheduler) Handle(req *iopath.Request, next iopath.Handler) error {
	s.est.Observe()
	return s.handlePiece(req, next, 0, true)
}

// handlePiece routes one piece. translate gates the relocation-table
// lookup: it is true for fresh requests and for pieces whose file changed
// under translation (a relocated file may itself have been relocated
// further — the chain is acyclic because every hop appends to the
// fallback name), and false for the untouched pieces handleMapped
// derives, which Translate already proved unmapped.
func (s *Scheduler) handlePiece(req *iopath.Request, next iopath.Handler, reroutes int, translate bool) error {
	if translate && s.fo.HasMapping(req.File) {
		return s.handleMapped(req, next)
	}
	if req.Op != trace.OpWrite {
		return next(req)
	}
	f := req.Target
	if f == nil {
		var err error
		f, err = s.files.ResolveFile(req.File)
		if err != nil {
			return err
		}
		req.Target = f
	}
	// Scan the stripe fan-out (stripe order — deterministic) for the
	// first confident straggler and for the slowest server right now.
	s.scratch = f.Layout.AppendSplit(s.scratch[:0], req.Offset, req.Size())
	straggler := -1
	slowest := -1
	var worst float64
	for i := range s.scratch {
		ref := s.scratch[i].Server
		srv := s.cluster.ServerForFile(f, ref)
		if straggler < 0 && reroutes < s.pol.MaxReroutes && s.est.IsStraggler(s.est.Index(srv), &s.pol) {
			straggler = i
		}
		if w := srv.Backlog(); slowest < 0 || w > worst {
			worst, slowest = w, i
		}
	}
	if straggler >= 0 {
		return s.reroute(req, next, reroutes, f, s.scratch[straggler].Server)
	}
	if s.pol.SpecWait > 0 && req.Cancels == nil && worst > s.pol.SpecWait {
		ref := s.scratch[slowest].Server
		if worst > s.pol.SpecThreshold*s.est.BacklogMedian(ref.Class) {
			return s.speculate(req, next, f, ref)
		}
	}
	return next(req)
}

// handleMapped fans a request over its relocation-table translation
// through the same Request.SplitTargets step the resilience stage uses
// for its failover tables: one child per piece, the parent completes
// with the slowest child.
//
//mhavet:coldpath translation fan-out runs only after a relocation happened
func (s *Scheduler) handleMapped(req *iopath.Request, next iopath.Handler) error {
	targets := s.fo.Translate(req.File, req.Offset, req.Size())
	if len(targets) == 1 && !targets[0].Mapped {
		return s.handlePiece(req, next, 0, false)
	}
	children, err := req.SplitTargets(targets, s.files)
	if err != nil {
		return err
	}
	for _, child := range children {
		if err := s.handlePiece(child, next, 0, child.File != req.File); err != nil {
			return err
		}
	}
	return nil
}

// reroute relocates the write off the straggler: remap the extent onto
// the straggler-avoiding fallback file (same machinery as degraded-mode
// failover, but in the scheduler's own tables) and re-run the decision on
// the fallback under the remaining reroute budget — the fallback may have
// its own straggler. A nil fallback (no layout avoids the server —
// single-server class on a degenerate cluster) passes the piece through.
//
//mhavet:coldpath straggler relocation allocates (fallback metadata, DRT records)
func (s *Scheduler) reroute(req *iopath.Request, next iopath.Handler, reroutes int, f *pfs.File, ref stripe.ServerRef) error {
	srv := s.cluster.ServerForFile(f, ref)
	fb, err := s.fo.Remap(f, req.Offset, req.Size(), srv.Name, ref.Class, s.cluster.PhysicalIndex(f, ref))
	if err != nil {
		return err
	}
	if fb == nil {
		return next(req)
	}
	if s.reroutes != nil {
		s.reroutes.Inc()
	}
	req.File, req.Target = fb.Name, fb
	return s.handlePiece(req, next, reroutes+1, true)
}

// race arbitrates one speculative re-issue: leg 0 is the original
// placement, leg 1 the duplicate on the straggler-avoiding fallback,
// launched by the deadline timer if the race has not already settled.
// The first successful leg wins and finishes the raced request at its
// end time; the loser's submissions are cancelled. A failed leg drops
// out; the race settles with an error only when no leg remains and the
// duplicate decision has been taken. Legs are parentless derivations
// (iopath.Derive) so a cancelled-and-burned loser cannot drag the raced
// request's completion out to its own end time.
//
// Every transition runs at an engine event under the pipeline's
// submission lock (leg completions arrive from server events the
// pipeline already serializes; the deadline timer re-enters via
// Exclusive), so races are deterministic and worker-count independent.
type race struct {
	sch  *Scheduler
	req  *iopath.Request
	next iopath.Handler

	// Raced extent and the lagging server the duplicate avoids.
	f        *pfs.File
	off, n   int64
	slowName string
	class    stripe.Class
	phys     int

	timer *sim.Timer
	sets  [2]*iopath.CancelSet
	fb    *pfs.File

	legs       int
	failures   int
	firstErr   error
	failEnd    float64
	dupDecided bool
	settled    bool
}

// speculate arms a race for the piece and dispatches the primary leg.
// The duplicate is not issued yet: it launches only if the primary is
// still unfinished when the deadline passes, so a piece that merely
// looked slow costs nothing extra.
//
//mhavet:coldpath speculation races allocate (legs, closures, deadline timer)
func (s *Scheduler) speculate(req *iopath.Request, next iopath.Handler, f *pfs.File, ref stripe.ServerRef) error {
	srv := s.cluster.ServerForFile(f, ref)
	r := &race{
		sch: s, req: req, next: next,
		f: f, off: req.Offset, n: req.Size(),
		slowName: srv.Name, class: ref.Class,
		phys: s.cluster.PhysicalIndex(f, ref),
	}
	if s.speculations != nil {
		s.speculations.Inc()
	}
	primary := req.Derive(req.File, req.Offset, req.Data)
	primary.Target = f
	primary.Cancels = iopath.NewCancelSet()
	r.sets[0] = primary.Cancels
	primary.OnComplete = func(end float64) { r.arrive(0, primary.Err, end) }
	r.legs = 1
	pipe := req.Pipeline()
	r.timer = s.eng.AfterFunc(s.pol.SpecWait, func() {
		pipe.Exclusive(func() { r.launchDup() })
	})
	if err := next(primary); err != nil {
		// Synchronous dispatch failure: the leg never entered the servers.
		// Disarm the race and surface the error to the submitter.
		r.settled = true
		r.timer.Stop()
		return err
	}
	return nil
}

// launchDup runs at the deadline: if the race is still open, issue the
// duplicate on the straggler-avoiding fallback. The fallback file is
// resolved (or created) here, but the relocation mapping is NOT
// published — Map runs only if the duplicate wins, so a losing duplicate
// leaves the tables untouched and readers keep resolving to the original
// placement the primary wrote.
func (r *race) launchDup() {
	r.dupDecided = true
	if r.settled {
		return
	}
	fb, err := r.sch.fo.Fallback(r.f, r.slowName, r.class, r.phys)
	if err != nil || fb == nil {
		// No layout avoids the lagging server (or the fallback wiring
		// failed): the race degenerates to the primary alone.
		if err != nil && r.firstErr == nil {
			r.firstErr = err
		}
		if r.failures == r.legs {
			r.settle(-1, r.failEnd, r.firstErr)
		}
		return
	}
	r.fb = fb
	dup := r.req.Derive(fb.Name, r.off, r.req.Data)
	dup.Target = fb
	dup.Cancels = iopath.NewCancelSet()
	r.sets[1] = dup.Cancels
	dup.OnComplete = func(end float64) { r.arrive(1, dup.Err, end) }
	r.legs = 2
	if err := r.next(dup); err != nil {
		// Synchronous dispatch failure counts as the leg failing now.
		r.arrive(1, err, r.sch.eng.Now())
	}
}

// arrive folds one leg completion into the race.
func (r *race) arrive(leg int, err error, end float64) {
	if r.settled {
		// Late arrivals are the cancelled loser completing; the race is
		// decided.
		return
	}
	if err == nil {
		r.settle(leg, end, nil)
		return
	}
	r.failures++
	if r.firstErr == nil {
		r.firstErr = err
	}
	if end > r.failEnd {
		r.failEnd = end
	}
	if r.failures < r.legs {
		return // the other leg is still running
	}
	if !r.dupDecided {
		return // the deadline timer may still add a leg
	}
	r.settle(-1, r.failEnd, r.firstErr)
}

// settle decides the race: stop the deadline timer, cancel the losing
// leg's submissions, publish the relocation mapping if the duplicate won,
// and finish the raced request. winner is -1 when every leg failed.
func (r *race) settle(winner int, end float64, err error) {
	r.settled = true
	if r.timer != nil {
		r.timer.Stop()
	}
	for i, set := range r.sets {
		if set == nil || i == winner {
			continue
		}
		set.Cancel()
		if winner >= 0 && r.sch.specCancelled != nil {
			r.sch.specCancelled.Inc()
		}
	}
	if winner == 1 {
		// The duplicate's bytes are the authoritative copy now: record the
		// extent as living in the fallback so every later read and write
		// translates there.
		if mapErr := r.sch.fo.Map(r.f.Name, r.fb.Name, r.off, r.n); mapErr != nil {
			err = mapErr
		} else if r.sch.specWins != nil {
			r.sch.specWins.Inc()
		}
	}
	if err != nil {
		r.req.FinishErr(end, err)
		return
	}
	r.req.Finish(end)
}
