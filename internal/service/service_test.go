package service

import (
	"errors"
	"os"
	"strings"
	"testing"

	"mhafs/internal/layout"
	"mhafs/internal/plancache"
	"mhafs/internal/telemetry"
)

func mustService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustSubmitAt(t *testing.T, s *Service, at float64, d Descriptor, who string) JobID {
	t.Helper()
	id, err := s.SubmitAt(at, d, who)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestIdempotentTrigger is the service's core contract: resubmitting an
// identical descriptor returns the original job ID, is recorded as a
// duplicate with its submitter, and causes zero additional planner
// executions.
func TestIdempotentTrigger(t *testing.T) {
	cache, _ := plancache.New(plancache.Options{})
	reg := telemetry.NewRegistry()
	s := mustService(t, Config{Workers: 1, Cache: cache, Telemetry: reg})

	d := testDescriptor("acme", 10)
	r1, err := s.Submit(d, "ana")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Duplicate {
		t.Fatal("first submission reported duplicate")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(r1.ID); st.State != "done" {
		t.Fatalf("job state %s, want done", st.State)
	}
	if got := cache.Stats().Misses; got != 1 {
		t.Fatalf("planner ran %d times, want 1", got)
	}

	r2, err := s.Submit(d, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicate || r2.ID != r1.ID {
		t.Fatalf("resubmission receipt %+v, want duplicate of %s", r2, r1.ID)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 1 {
		t.Fatalf("resubmission re-planned: %d planner runs, want 1", got)
	}
	if v := reg.Counter("service_jobs_deduped_total").Value(); v != 1 {
		t.Fatalf("service_jobs_deduped_total = %v, want 1", v)
	}
	if v := reg.Counter("service_jobs_submitted_total").Value(); v != 2 {
		t.Fatalf("service_jobs_submitted_total = %v, want 2", v)
	}

	dups := s.Ledger().Duplicates("acme")
	if len(dups) != 1 || dups[0].Submitter != "bob" {
		t.Fatalf("ledger duplicates %+v, want bob's resubmission", dups)
	}

	// A different tenant with the identical workload is a NEW job (its
	// own ledger history) but shares the planner execution via the cache.
	d2 := d
	d2.Tenant = "umbrella"
	r3, err := s.Submit(d2, "eve")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Duplicate || r3.ID == r1.ID {
		t.Fatalf("cross-tenant submission receipt %+v, want a distinct fresh job", r3)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Misses; got != 1 {
		t.Fatalf("identical cross-tenant workload re-planned: %d planner runs, want 1", got)
	}
	if st, _ := s.Status(r3.ID); st.State != "done" || st.Regions == 0 {
		t.Fatalf("cross-tenant job %+v, want done with a plan", st)
	}
}

// TestRetryBackoff drives the retry path on exact virtual timestamps:
// power-of-two config values make every float comparison exact.
func TestRetryBackoff(t *testing.T) {
	s := mustService(t, Config{
		Slots: 1, Workers: 1,
		PlanBase: 0.25, PlanPerRecord: 0, // exact float durations
		RetryMax: 2, RetryBackoff: 0.5,
	})
	calls := 0
	s.planFn = func(Descriptor) (layout.Plan, error) {
		calls++
		if calls < 3 {
			return layout.Plan{}, errors.New("transient")
		}
		return layout.Plan{Scheme: layout.MHA}, nil
	}

	id := mustSubmitAt(t, s, 0, testDescriptor("acme", 10), "ana")
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// attempt 1: [0, 0.25), fails; retry at 0.25+0.5 = 0.75
	// attempt 2: [0.75, 1.0), fails; retry at 1.0+1.0 = 2.0
	// attempt 3: [2.0, 2.25), succeeds
	st, ok := s.Status(id)
	if !ok || st.State != "done" || st.Attempts != 3 {
		t.Fatalf("status %+v, want done after 3 attempts", st)
	}
	if st.FinishedAt != 2.25 {
		t.Fatalf("finished at %v, want exactly 2.25", st.FinishedAt)
	}
	if got := s.Stats(); got.Retried != 2 || got.Completed != 1 || got.Failed != 0 {
		t.Fatalf("stats %+v, want 2 retries and 1 completion", got)
	}
}

// TestRetryExhaustion: a persistently failing planner fails the job
// terminally after RetryMax retries, recording the error in the ledger.
func TestRetryExhaustion(t *testing.T) {
	s := mustService(t, Config{
		Slots: 1, Workers: 1,
		PlanBase: 0.25, PlanPerRecord: 0,
		RetryMax: 2, RetryBackoff: 0.5,
	})
	calls := 0
	s.planFn = func(Descriptor) (layout.Plan, error) {
		calls++
		return layout.Plan{}, errors.New("permanent")
	}
	id := mustSubmitAt(t, s, 0, testDescriptor("acme", 10), "ana")
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id)
	if st.State != "failed" || st.Attempts != 3 || st.Error != "permanent" {
		t.Fatalf("status %+v, want failed after 3 attempts with the planner error", st)
	}
	if calls != 3 {
		t.Fatalf("planner ran %d times, want 3 (1 + RetryMax)", calls)
	}
	var failRows int
	for _, e := range s.Ledger().Entries() {
		if e.Kind == KindFail && e.Job == id.String() && e.Error == "permanent" {
			failRows++
		}
	}
	if failRows != 1 {
		t.Fatalf("ledger fail rows = %d, want 1", failRows)
	}
}

// TestCancellation covers both cancel shapes: a queued job is dequeued,
// a running job's result is discarded when its slot frees.
func TestCancellation(t *testing.T) {
	s := mustService(t, Config{Slots: 1, Workers: 1, PlanBase: 0.25, PlanPerRecord: 0})
	s.planFn = func(Descriptor) (layout.Plan, error) { return layout.Plan{Scheme: layout.MHA}, nil }

	running := mustSubmitAt(t, s, 0, testDescriptor("acme", 10), "ana")
	queued := mustSubmitAt(t, s, 0, testDescriptor("acme", 20), "ana")
	if err := s.CancelAt(0.125, running); err != nil { // mid-flight
		t.Fatal(err)
	}
	if err := s.CancelAt(0.125, queued); err != nil { // still pending
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []JobID{running, queued} {
		st, _ := s.Status(id)
		if st.State != "cancelled" || st.FinishedAt != 0.125 {
			t.Fatalf("job %s status %+v, want cancelled at 0.125", id, st)
		}
	}
	if got := s.Stats(); got.Cancelled != 2 || got.Completed != 0 {
		t.Fatalf("stats %+v, want 2 cancellations and 0 completions", got)
	}
	// Cancelling a terminal job is a no-op.
	if s.Cancel(running) {
		t.Fatal("cancel of a cancelled job reported success")
	}
}

// TestTenantFairness: tenant A floods the queue; tenant B's single job
// must start after at most one of A's jobs, not after the whole backlog.
func TestTenantFairness(t *testing.T) {
	s := mustService(t, Config{Slots: 1, Workers: 1, PlanBase: 0.25, PlanPerRecord: 0})
	s.planFn = func(Descriptor) (layout.Plan, error) { return layout.Plan{Scheme: layout.MHA}, nil }

	var flood []JobID
	for i := 0; i < 5; i++ {
		flood = append(flood, mustSubmitAt(t, s, 0, testDescriptor("flooder", 10+i), "ana"))
	}
	single := mustSubmitAt(t, s, 0, testDescriptor("quiet", 100), "bob")
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(single)
	// Slot order: flood[0] at 0, then round-robin gives quiet the next
	// slot at 0.25 — ahead of flood[1..4].
	if st.StartedAt != 0.25 {
		t.Fatalf("quiet tenant started at %v, want 0.25 (second slot)", st.StartedAt)
	}
	for i, id := range flood[1:] {
		fst, _ := s.Status(id)
		if fst.StartedAt <= st.StartedAt {
			t.Fatalf("flooder job %d started at %v, before the quiet tenant's %v", i+1, fst.StartedAt, st.StartedAt)
		}
	}
}

// TestRestartRecovery: a dir-backed service replays its ledger — terminal
// jobs dedupe resubmissions without re-planning, and unfinished jobs come
// back Orphaned until a resubmission re-attaches the descriptor.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	d := testDescriptor("acme", 10)

	// Life 1: complete one job, leave a second one submitted but never run.
	s1 := mustService(t, Config{Workers: 1, LedgerDir: dir})
	r1, err := s1.Submit(d, "ana")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Run(); err != nil {
		t.Fatal(err)
	}
	orphanDesc := testDescriptor("acme", 20)
	// Submitted (so the ledger records it) but the event loop never runs
	// again: the process dies with the job pending.
	if _, err := s1.Submit(orphanDesc, "ana"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: replay.
	s2 := mustService(t, Config{Workers: 1, LedgerDir: dir})
	if st, ok := s2.Status(r1.ID); !ok || st.State != "done" || !st.Recovered {
		t.Fatalf("completed job after restart: %+v, want recovered done", st)
	}
	if st, ok := s2.Status(orphanDesc.JobID()); !ok || st.State != "orphaned" {
		t.Fatalf("unfinished job after restart: %+v, want orphaned", st)
	}

	// Resubmitting the completed job dedupes with zero planner calls.
	calls := 0
	s2.planFn = func(Descriptor) (layout.Plan, error) {
		calls++
		return layout.Plan{Scheme: layout.MHA}, nil
	}
	r2, err := s2.Submit(d, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Duplicate || r2.ID != r1.ID {
		t.Fatalf("post-restart resubmission %+v, want duplicate of %s", r2, r1.ID)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("terminal job re-planned %d times after restart", calls)
	}

	// Resubmitting the orphan is ALSO a duplicate (the ledger shows both
	// triggers) but re-activates the job under its original ID.
	r3, err := s2.Submit(orphanDesc, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Duplicate || r3.ID != orphanDesc.JobID() {
		t.Fatalf("orphan resubmission %+v", r3)
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if st, _ := s2.Status(r3.ID); st.State != "done" {
		t.Fatalf("re-activated orphan state %s, want done", st.State)
	}
	if calls != 1 {
		t.Fatalf("orphan re-activation ran the planner %d times, want 1", calls)
	}

	// The full history is queryable: the orphan job shows the original
	// trigger plus the re-activation, the latter flagged as a duplicate.
	sums := SummarizeLedger(s2.Ledger().Entries())
	var orphanSum *JobSummary
	for i := range sums {
		if sums[i].Job == orphanDesc.JobID().String() {
			orphanSum = &sums[i]
		}
	}
	if orphanSum == nil || orphanSum.Submissions != 2 || orphanSum.Duplicates != 1 || orphanSum.State != "done" {
		t.Fatalf("orphan ledger summary %+v, want 2 submissions / 1 duplicate / done", orphanSum)
	}
}

// TestLedgerWriteFailure: a ledger append that fails stops the run and
// surfaces as an error from Run and every later Submit, never a panic.
func TestLedgerWriteFailure(t *testing.T) {
	s := mustService(t, Config{Workers: 1, LedgerDir: t.TempDir()})
	s.planFn = func(Descriptor) (layout.Plan, error) { return layout.Plan{Scheme: layout.MHA}, nil }
	if err := s.ledger.f.Close(); err != nil {
		t.Fatal(err)
	}
	id := mustSubmitAt(t, s, 0, testDescriptor("acme", 10), "ana")
	mustSubmitAt(t, s, 1, testDescriptor("acme", 20), "ana")
	err := s.Run()
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run = %v, want an error wrapping os.ErrClosed", err)
	}
	// The failed arrival was the run's last event: nothing was dispatched
	// and the later arrival never fired.
	if st, _ := s.Status(id); st.State != "pending" {
		t.Fatalf("job state %s after the failed append, want pending", st.State)
	}
	if got := s.Stats().Submitted; got != 1 {
		t.Fatalf("submitted = %d, want 1 (the run stops at the failure)", got)
	}
	if _, err := s.Submit(testDescriptor("acme", 30), "bob"); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Submit after the failure = %v, want the ledger error", err)
	}
}

// TestQueueDepthGauges: the live depth returns to zero and the peak
// records the high-water mark, both in virtual time.
func TestQueueDepthGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := mustService(t, Config{Slots: 1, Workers: 1, PlanBase: 0.25, PlanPerRecord: 0, Telemetry: reg})
	s.planFn = func(Descriptor) (layout.Plan, error) { return layout.Plan{Scheme: layout.MHA}, nil }
	for i := 0; i < 4; i++ {
		mustSubmitAt(t, s, 0, testDescriptor("acme", 10+i), "ana")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Gauge("service_queue_depth").Value(); v != 0 {
		t.Errorf("final queue depth %v, want 0", v)
	}
	// All 4 arrive at t=0 before the first dispatch: depth peaks at 4.
	if v := reg.Gauge("service_queue_depth_peak").Value(); v != 4 {
		t.Errorf("peak queue depth %v, want 4", v)
	}
}

// TestSubmitValidation: bad descriptors and time travel are rejected.
func TestSubmitValidation(t *testing.T) {
	s := mustService(t, Config{Workers: 1})
	if _, err := s.Submit(testDescriptor("", 3), "ana"); err == nil {
		t.Error("tenantless descriptor accepted")
	}
	if _, err := s.SubmitAt(-1, testDescriptor("acme", 3), "ana"); err == nil ||
		!strings.Contains(err.Error(), "before now") {
		t.Errorf("past submission accepted: %v", err)
	}
	if err := s.CancelAt(-1, JobID{}); err == nil {
		t.Error("past cancellation accepted")
	}
	if s.Cancel(JobID{}) {
		t.Error("cancel of unknown job reported success")
	}
}

// TestStateString pins the state names the dumps and the CLI print.
func TestStateString(t *testing.T) {
	want := map[State]string{
		StatePending: "pending", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateCancelled: "cancelled", StateOrphaned: "orphaned",
		State(99): "state(99)",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), name)
		}
	}
}
