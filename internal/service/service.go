// Package service is the multi-tenant layout-plan control plane: a
// long-running planner front-end that accepts plan jobs from many
// applications, deduplicates them idempotently, queues them fairly, and
// delivers plans through the content-addressed plan cache.
//
// The service is deterministic by construction. It runs on the data
// plane's discrete-event engine: every submission, cancellation,
// completion and retry is one sim.Engine callback on one goroutine, and
// the first event of an instant arms a same-instant dispatch that fires
// after all of them (see Service.at), so two runs of the same submission
// script produce byte-identical state dumps and telemetry. Real
// parallelism exists only where the repository's determinism argument
// already covers it — the planner executions of one dispatch batch fan
// out on a parfan pool (results committed in dispatch order), and each
// planner's internal stripe searches fan out under Env.Workers. Neither
// changes a byte of output (DESIGN.md §12, §18).
//
// Identity model, outermost to innermost:
//
//   - JobID = hash(tenant, plan key): the unit of idempotency. The same
//     descriptor submitted twice is the same job — the second submission
//     is recorded in the ledger (duplicates are allowed but detectable)
//     and answered with the original job, never re-planned.
//   - plancache.Key = hash(trace, scheme, env): the unit of computation.
//     Distinct tenants planning identical workloads hold distinct jobs
//     but coalesce single-flight onto one RSSD search in the cache.
//
// Fairness: one round-robin ring over tenants with pending work, FIFO
// within each tenant, so a tenant flooding the queue delays its own jobs,
// not its neighbors' — tenant B's first job starts after at most
// Slots + (tenants ahead in the ring) dispatches regardless of how deep
// tenant A's backlog is.
package service

import (
	"fmt"
	"math"

	"mhafs/internal/layout"
	"mhafs/internal/parfan"
	"mhafs/internal/plancache"
	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
)

// State is a job's lifecycle position.
type State uint8

// Job states. Orphaned is the restart limbo: the ledger proves the job
// was submitted but never finished, and the descriptor (the trace) was
// not persisted — a resubmission carrying the descriptor re-activates
// the job under its original ID.
const (
	StatePending State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
	StateOrphaned
)

// String names the state.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	case StateOrphaned:
		return "orphaned"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes a Service.
type Config struct {
	// Slots bounds how many jobs plan concurrently in virtual time — the
	// service's admission of "planner machines". Part of the virtual
	// schedule, so it must match across runs being compared. Default 2.
	Slots int

	// Workers bounds the real parfan fan-out used to execute the planner
	// calls of one dispatch batch (and seeds Env.Workers is NOT implied —
	// descriptors carry their own Env). 0 selects GOMAXPROCS, 1 is
	// serial. Output is byte-identical at every setting.
	Workers int

	// PlanBase and PlanPerRecord define a job's virtual planning
	// duration: PlanBase + PlanPerRecord × len(trace) seconds. The
	// duration is a pure function of the descriptor — never of cache
	// hits, worker counts or wall time — which is what keeps the virtual
	// schedule identical across cache modes. Defaults 0.05 and 1e-5.
	PlanBase      float64
	PlanPerRecord float64

	// RetryMax is how many times a job whose planner errored is retried
	// before failing terminally (default 2). RetryBackoff is the first
	// retry delay in virtual seconds, doubling per attempt (default 0.5).
	RetryMax     int
	RetryBackoff float64

	// Cache, when non-nil, memoizes planner executions by content
	// address; identical workloads across tenants (and re-activations
	// across restarts, with a dir-backed cache) coalesce onto one
	// computation. Nil plans every job from scratch.
	Cache *plancache.Cache

	// LedgerDir persists the dedupe ledger under this directory (and
	// replays it on New, restoring job identities and terminal states).
	// Empty keeps the ledger in memory.
	LedgerDir string

	// Telemetry, when non-nil, receives the service's counters, the
	// queue-depth gauges and the per-scheme planning-latency histograms.
	// All series are driven by the virtual clock, so snapshots are
	// byte-identical across runs and worker counts.
	Telemetry *telemetry.Registry
}

// withDefaults normalizes zero values.
func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 2
	}
	// The duration pair defaults together: setting PlanBase alone is a
	// deliberate flat (trace-size-independent) duration, not half a default.
	if c.PlanBase == 0 && c.PlanPerRecord == 0 {
		c.PlanBase = 0.05
		c.PlanPerRecord = 1e-5
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.5
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Slots < 0 {
		return fmt.Errorf("service: negative slots")
	}
	if c.PlanBase < 0 || c.PlanPerRecord < 0 {
		return fmt.Errorf("service: negative plan duration")
	}
	if c.RetryMax < 0 {
		return fmt.Errorf("service: negative retry max")
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("service: negative retry backoff")
	}
	return nil
}

// job is one unit of idempotent work.
type job struct {
	id       JobID
	tenant   string
	scheme   layout.Scheme
	desc     Descriptor
	hasDesc  bool // false for restart-recovered jobs (descriptor not persisted)
	state    State
	attempts int

	submittedAt float64
	startedAt   float64
	finishedAt  float64

	plan    layout.Plan
	planErr error

	recovered bool // restored from the ledger by New
}

// tenantQueue is one tenant's FIFO of pending jobs.
type tenantQueue struct {
	name string
	jobs []*job
}

// Stats counts the service's lifecycle transitions; every field is a
// pure function of the submission history.
type Stats struct {
	Submitted uint64 `json:"submitted"` // every submission, duplicates included
	Deduped   uint64 `json:"deduped"`   // submissions answered by an existing job
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Retried   uint64 `json:"retried"`
	Cancelled uint64 `json:"cancelled"`
}

// Service is the multi-tenant plan service. It is single-threaded: all
// methods must be called from one goroutine (the parallelism lives
// inside dispatch batches and the planners, behind parfan).
type Service struct {
	cfg    Config
	ledger *Ledger
	eng    *sim.Engine
	armed  bool  // a same-instant dispatch event is queued
	err    error // first ledger write failure; stops the run

	jobs   map[JobID]*job
	order  []JobID // jobs in first-submission order, for deterministic dumps
	queues map[string]*tenantQueue
	ring   []*tenantQueue // tenants with pending work, round-robin order
	ringAt int

	busy   int // occupied virtual slots
	depth  int // pending (queued) jobs
	ledSeq uint64

	stats Stats

	// telemetry handles, nil when no registry is configured
	ctrSubmitted *telemetry.Counter
	ctrDeduped   *telemetry.Counter
	ctrCompleted *telemetry.Counter
	ctrFailed    *telemetry.Counter
	ctrRetried   *telemetry.Counter
	ctrCancelled *telemetry.Counter
	gaugeDepth   *telemetry.Gauge
	gaugePeak    *telemetry.Gauge

	// planFn overrides the planner execution in tests; nil uses the
	// cache-wrapped real planners.
	planFn func(Descriptor) (layout.Plan, error)
}

// New builds a service, replaying the dir-backed ledger (when configured)
// so previously submitted jobs keep their identities: terminal jobs stay
// queryable and deduplicate resubmissions; unfinished jobs become
// Orphaned until a resubmission carries their descriptor back.
func New(cfg Config) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	led, err := OpenLedger(cfg.LedgerDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		ledger: led,
		eng:    &sim.Engine{},
		jobs:   make(map[JobID]*job),
		queues: make(map[string]*tenantQueue),
	}
	if reg := cfg.Telemetry; reg != nil {
		// Eager-zero registration: the snapshot's series set depends on
		// the configuration, never on what the run happened to do.
		s.ctrSubmitted = reg.Counter("service_jobs_submitted_total")
		s.ctrDeduped = reg.Counter("service_jobs_deduped_total")
		s.ctrCompleted = reg.Counter("service_jobs_completed_total")
		s.ctrFailed = reg.Counter("service_jobs_failed_total")
		s.ctrRetried = reg.Counter("service_jobs_retried_total")
		s.ctrCancelled = reg.Counter("service_jobs_cancelled_total")
		s.gaugeDepth = reg.Gauge("service_queue_depth")
		s.gaugePeak = reg.Gauge("service_queue_depth_peak")
	}
	for _, e := range led.Entries() {
		if e.Seq > s.ledSeq {
			s.ledSeq = e.Seq
		}
		id, err := ParseJobID(e.Job)
		if err != nil {
			return nil, fmt.Errorf("service: ledger: %w", err)
		}
		j := s.jobs[id]
		if j == nil {
			if e.Kind != KindSubmit {
				return nil, fmt.Errorf("service: ledger: %s entry %d for unsubmitted job %s", e.Kind, e.Seq, e.Job)
			}
			scheme, err := layout.ParseScheme(e.Scheme)
			if err != nil {
				return nil, fmt.Errorf("service: ledger: entry %d: %w", e.Seq, err)
			}
			j = &job{id: id, tenant: e.Tenant, scheme: scheme, state: StateOrphaned, recovered: true}
			s.jobs[id] = j
			s.order = append(s.order, id)
		}
		switch e.Kind {
		case KindComplete:
			j.state = StateDone
		case KindFail:
			j.state = StateFailed
			j.planErr = fmt.Errorf("%s", e.Error)
		case KindCancel:
			j.state = StateCancelled
		}
	}
	return s, nil
}

// Close releases the ledger.
func (s *Service) Close() error { return s.ledger.Close() }

// Now returns the current virtual time in seconds (the service is a
// telemetry.Clock).
func (s *Service) Now() float64 { return s.eng.Now() }

// Ledger exposes the dedupe ledger for queries.
func (s *Service) Ledger() *Ledger { return s.ledger }

// Stats returns the lifecycle counters.
func (s *Service) Stats() Stats { return s.stats }

// Receipt answers a submission: the job's identity and whether an
// earlier submission already covered it.
type Receipt struct {
	ID        JobID
	Duplicate bool
	State     State
}

// SubmitAt schedules a submission at virtual time t (≥ now); the
// returned ID is the descriptor's content hash, known before the arrival
// is processed. Dedupe, ledger recording and enqueueing happen when the
// arrival fires inside Run.
func (s *Service) SubmitAt(t float64, d Descriptor, submitter string) (JobID, error) {
	if err := d.Validate(); err != nil {
		return JobID{}, err
	}
	if t < s.Now() || math.IsNaN(t) {
		return JobID{}, fmt.Errorf("service: submission at %v is before now (%v)", t, s.Now())
	}
	s.at(t, func() { s.arrive(d, submitter) })
	return d.JobID(), nil
}

// Submit processes a submission at the current virtual time and returns
// its receipt. Dispatching still happens inside Run. A failed ledger
// write is returned here and by every later Submit and Run.
func (s *Service) Submit(d Descriptor, submitter string) (Receipt, error) {
	if err := d.Validate(); err != nil {
		return Receipt{}, err
	}
	if s.err != nil {
		return Receipt{}, s.err
	}
	id, dup := s.arrive(d, submitter)
	if s.err != nil {
		return Receipt{}, s.err
	}
	return Receipt{ID: id, Duplicate: dup, State: s.jobs[id].state}, nil
}

// CancelAt schedules a cancellation at virtual time t. The target may be
// pending (dequeued), running (result discarded at its completion
// instant) or waiting on a retry; terminal jobs are untouched.
func (s *Service) CancelAt(t float64, id JobID) error {
	if t < s.Now() || math.IsNaN(t) {
		return fmt.Errorf("service: cancellation at %v is before now (%v)", t, s.Now())
	}
	s.at(t, func() { s.cancel(id) })
	return nil
}

// Cancel cancels at the current virtual time. It reports whether the job
// was actually moved to Cancelled (false: unknown or already terminal).
func (s *Service) Cancel(id JobID) bool { return s.cancel(id) }

// at schedules fn as one service event at virtual time t. After fn runs,
// the event arms a dispatch at the same instant unless one is already
// armed: its seq is higher than every event already queued at t, so all
// of the instant's events fire before the one dispatch batch.
func (s *Service) at(t float64, fn func()) {
	s.eng.At(t, func() {
		fn()
		if !s.armed {
			s.armed = true
			s.eng.At(s.eng.Now(), s.dispatchEvent)
		}
	})
}

// dispatchEvent is the armed same-instant dispatch.
func (s *Service) dispatchEvent() {
	s.armed = false
	s.dispatch()
}

// Run drives the engine until no events remain: the clock jumps from
// instant to instant, all events of an instant fire in schedule order,
// and then freed slots are refilled in one dispatch batch whose planner
// calls fan out on the parfan pool. When Run returns nil every submitted
// job is terminal (dispatch always drains the queue into free slots). A
// failed ledger write stops the run at that event and is returned.
func (s *Service) Run() error {
	if s.err != nil {
		return s.err
	}
	s.dispatch()
	for s.err == nil && s.eng.Step() {
	}
	return s.err
}

// arrive is the trigger API's core: record the submission, dedupe, and
// enqueue new (or re-activate orphaned) work.
func (s *Service) arrive(d Descriptor, submitter string) (JobID, bool) {
	id := d.JobID()
	existing, dup := s.jobs[id]
	s.stats.Submitted++
	inc(s.ctrSubmitted)
	s.appendLedger(Entry{
		Time: s.Now(), Kind: KindSubmit, Job: id.String(), Tenant: d.Tenant,
		Scheme: d.Scheme.String(), Submitter: submitter, Duplicate: dup,
	})
	if !dup {
		j := &job{
			id: id, tenant: d.Tenant, scheme: d.Scheme, desc: d, hasDesc: true,
			state: StatePending, submittedAt: s.Now(),
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.enqueue(j)
		return id, false
	}
	s.stats.Deduped++
	inc(s.ctrDeduped)
	if existing.state == StateOrphaned {
		// A recovered job whose work was lost with the previous process:
		// the resubmission carries the descriptor back, so the job
		// resumes under its original identity. The submission above is
		// still a duplicate — the ledger shows both the original trigger
		// and this re-activation.
		existing.desc, existing.hasDesc = d, true
		existing.state = StatePending
		existing.submittedAt = s.Now()
		s.enqueue(existing)
	}
	return id, true
}

// cancel moves a live job to Cancelled.
func (s *Service) cancel(id JobID) bool {
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case StatePending:
		// Queued or waiting for a retry; the queue skips cancelled
		// entries lazily and the retry event checks the state.
		s.setDepth(s.depth - s.queuedCount(j))
	case StateRunning:
		// The slot is freed (and the result discarded) at the job's
		// completion instant.
	default:
		return false
	}
	j.state = StateCancelled
	j.finishedAt = s.Now()
	s.stats.Cancelled++
	inc(s.ctrCancelled)
	s.appendLedger(Entry{Time: s.Now(), Kind: KindCancel, Job: id.String(), Tenant: j.tenant})
	return true
}

// queuedCount reports whether j currently occupies a queue slot (a
// pending job waiting on a retry timer does not).
func (s *Service) queuedCount(j *job) int {
	tq := s.queues[j.tenant]
	if tq == nil {
		return 0
	}
	for _, q := range tq.jobs {
		if q == j {
			return 1
		}
	}
	return 0
}

// enqueue appends j to its tenant's FIFO, adding the tenant to the
// round-robin ring on its first pending job.
func (s *Service) enqueue(j *job) {
	tq := s.queues[j.tenant]
	if tq == nil {
		tq = &tenantQueue{name: j.tenant}
		s.queues[j.tenant] = tq
	}
	if len(tq.jobs) == 0 {
		s.ring = append(s.ring, tq)
	}
	tq.jobs = append(tq.jobs, j)
	s.setDepth(s.depth + 1)
}

// nextJob pops the next pending job under round-robin fairness: the ring
// advances one tenant per dispatch, each tenant serves FIFO, and tenants
// whose queues empty leave the ring.
func (s *Service) nextJob() *job {
	for len(s.ring) > 0 {
		if s.ringAt >= len(s.ring) {
			s.ringAt = 0
		}
		tq := s.ring[s.ringAt]
		// Shed cancelled heads lazily.
		for len(tq.jobs) > 0 && tq.jobs[0].state != StatePending {
			tq.jobs = tq.jobs[1:]
		}
		if len(tq.jobs) == 0 {
			s.ring = append(s.ring[:s.ringAt], s.ring[s.ringAt+1:]...)
			continue
		}
		j := tq.jobs[0]
		tq.jobs = tq.jobs[1:]
		if len(tq.jobs) == 0 {
			s.ring = append(s.ring[:s.ringAt], s.ring[s.ringAt+1:]...)
		} else {
			s.ringAt++
		}
		s.setDepth(s.depth - 1)
		return j
	}
	return nil
}

// dispatch fills free slots from the queue and executes the batch's
// planner calls on the parfan pool. Results are committed in dispatch
// order and completions scheduled at descriptor-determined virtual
// durations, so the batch's outcome is independent of worker count.
func (s *Service) dispatch() {
	var batch []*job
	for s.busy < s.cfg.Slots {
		j := s.nextJob()
		if j == nil {
			break
		}
		s.busy++
		j.state = StateRunning
		j.startedAt = s.Now()
		j.attempts++
		batch = append(batch, j)
	}
	if len(batch) == 0 {
		return
	}
	type result struct {
		plan layout.Plan
		err  error
	}
	results := parfan.Map(len(batch), s.cfg.Workers, func(i int) result {
		p, err := s.plan(batch[i].desc)
		return result{p, err}
	})
	for i, j := range batch {
		j.plan, j.planErr = results[i].plan, results[i].err
		s.at(s.Now()+s.planDuration(j.desc), func() { s.finish(j) })
	}
}

// plan executes one planner call, through the cache when configured.
func (s *Service) plan(d Descriptor) (layout.Plan, error) {
	if s.planFn != nil {
		return s.planFn(d)
	}
	planner, err := layout.NewPlanner(d.Scheme)
	if err != nil {
		return layout.Plan{}, err
	}
	return plancache.Wrap(planner, s.cfg.Cache).Plan(d.Trace, d.Env)
}

// planDuration is the job's virtual service time — a pure function of
// the descriptor (see Config.PlanBase).
func (s *Service) planDuration(d Descriptor) float64 {
	return s.cfg.PlanBase + s.cfg.PlanPerRecord*float64(len(d.Trace))
}

// finish applies a completed planner call: success, retry, terminal
// failure — or nothing but the freed slot when the job was cancelled
// mid-flight.
func (s *Service) finish(j *job) {
	s.busy--
	if j.state != StateRunning { // cancelled while running
		return
	}
	if j.planErr != nil {
		if j.attempts <= s.cfg.RetryMax {
			s.stats.Retried++
			inc(s.ctrRetried)
			j.state = StatePending
			backoff := s.cfg.RetryBackoff
			for i := 1; i < j.attempts; i++ {
				backoff *= 2
			}
			s.at(s.Now()+backoff, func() {
				if j.state == StatePending { // not cancelled while waiting
					s.enqueue(j)
				}
			})
			return
		}
		j.state = StateFailed
		j.finishedAt = s.Now()
		s.stats.Failed++
		inc(s.ctrFailed)
		s.appendLedger(Entry{
			Time: s.Now(), Kind: KindFail, Job: j.id.String(), Tenant: j.tenant,
			Error: j.planErr.Error(),
		})
		return
	}
	j.state = StateDone
	j.finishedAt = s.Now()
	s.stats.Completed++
	inc(s.ctrCompleted)
	s.appendLedger(Entry{Time: s.Now(), Kind: KindComplete, Job: j.id.String(), Tenant: j.tenant})
	if reg := s.cfg.Telemetry; reg != nil {
		reg.Histogram("service_plan_latency_seconds", telemetry.LatencyBuckets(),
			telemetry.L("scheme", j.scheme.String())).Observe(s.Now() - j.submittedAt)
	}
}

// appendLedger stamps and records one entry. The first write failure is
// kept and stops the run (a dedupe ledger that silently loses rows cannot
// detect anything); Run and Submit return it.
func (s *Service) appendLedger(e Entry) {
	s.ledSeq++
	e.Seq = s.ledSeq
	if err := s.ledger.Append(e); err != nil && s.err == nil {
		s.err = err
	}
}

// setDepth moves the queue-depth gauge.
func (s *Service) setDepth(d int) {
	s.depth = d
	if s.gaugeDepth != nil {
		s.gaugeDepth.Set(float64(d))
		s.gaugePeak.SetMax(float64(d))
	}
}

// inc bumps a counter handle when telemetry is configured.
func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Plan returns a completed job's plan. Only jobs completed by this
// process hold their plan in memory; restart-recovered Done jobs answer
// through the (dir-backed) plan cache on resubmission instead.
func (s *Service) Plan(id JobID) (layout.Plan, error) {
	j, ok := s.jobs[id]
	if !ok {
		return layout.Plan{}, fmt.Errorf("service: unknown job %s", id)
	}
	if j.state != StateDone || !j.hasDesc {
		return layout.Plan{}, fmt.Errorf("service: job %s is %s", id, j.state)
	}
	return j.plan, nil
}

// Status is one job's externally visible state.
type Status struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Scheme      string  `json:"scheme"`
	State       string  `json:"state"`
	Attempts    int     `json:"attempts"`
	SubmittedAt float64 `json:"submitted_at"`
	StartedAt   float64 `json:"started_at"`
	FinishedAt  float64 `json:"finished_at"`
	TraceDigest string  `json:"trace_digest,omitempty"` // empty while orphaned
	PlanKey     string  `json:"plan_key,omitempty"`
	Regions     int     `json:"regions"`
	Mappings    int     `json:"mappings"`
	Error       string  `json:"error,omitempty"`
	Recovered   bool    `json:"recovered,omitempty"`
}

// Status reports one job.
func (s *Service) Status(id JobID) (Status, bool) {
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return s.status(j), true
}

func (s *Service) status(j *job) Status {
	st := Status{
		ID: j.id.String(), Tenant: j.tenant, Scheme: j.scheme.String(),
		State: j.state.String(), Attempts: j.attempts,
		SubmittedAt: j.submittedAt, StartedAt: j.startedAt, FinishedAt: j.finishedAt,
		Recovered: j.recovered,
	}
	if j.hasDesc {
		d := j.desc.TraceDigest()
		st.TraceDigest = fmt.Sprintf("%x", d[:])
		st.PlanKey = j.desc.PlanKey().String()
	}
	if j.state == StateDone {
		st.Regions = len(j.plan.Regions)
		st.Mappings = len(j.plan.Mappings)
	}
	if j.planErr != nil && j.state == StateFailed {
		st.Error = j.planErr.Error()
	}
	return st
}
