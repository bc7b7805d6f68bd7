package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"mhafs/internal/bench"
	"mhafs/internal/iosig"
	"mhafs/internal/layout"
	"mhafs/internal/plancache"
	"mhafs/internal/service"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// plan-service shape: eight tenants submit jobs over a pool of traces and
// the four schemes. Every tenant submits every (trace, scheme) pair once
// (one planner run, seven cross-tenant cache hits) and three tenants
// submit it again (same-tenant duplicates): per cycle 9% planner runs,
// 64% cache hits and 27% duplicates for every seed, and the few costly
// planner runs stay above the p90, which falls among the IOR hits. The
// seed picks the traces and the order. A cycle runs against a fresh
// service (in-memory plan cache, ledger in a fresh directory).
const (
	svcTenants    = 8
	svcDups       = 3
	svcPoolEach   = 6 // traces per kind: IOR 16 KB, LANL, small Cholesky
	svcIORScale   = 64
	svcLANLProcs  = 8
	svcCholPanels = 1
)

// jobSpec is one submission of the cycle.
type jobSpec struct {
	tenant string
	trace  int
	scheme layout.Scheme
}

type planService struct {
	env  layout.Env
	pool []trace.Trace
	jobs []jobSpec
	tmp  string // per-run scratch directory inside the checkout

	svc   *service.Service
	cache *plancache.Cache
	dir   string
	first map[jobSpec]service.JobID
	plans map[service.JobID]layout.Plan
}

func newPlanService(seed int64, tmp string) (*planService, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &planService{env: layout.DefaultEnv(), tmp: tmp}
	for j := 0; j < svcPoolEach; j++ {
		ior, err := iorTrace([]int64{16 * units.KB}, trace.OpWrite, svcIORScale, rng.Int63())
		if err != nil {
			return nil, err
		}
		lanl, err := workload.LANL(workload.LANLConfig{
			File: "lanl.dat", Op: trace.OpWrite, Procs: svcLANLProcs, Loops: 8 + 4*j,
		})
		if err != nil {
			return nil, err
		}
		chol, err := workload.Cholesky(workload.CholeskyConfig{
			FilePrefix: "chol.mat", Procs: cholProcs, Panels: svcCholPanels, Seed: rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, ior, lanl, chol)
	}
	for tr := range w.pool {
		for _, scheme := range layout.AllSchemes() {
			for tn := 0; tn < svcTenants+svcDups; tn++ {
				w.jobs = append(w.jobs, jobSpec{tenant: fmt.Sprintf("tenant-%d", tn%svcTenants), trace: tr, scheme: scheme})
			}
		}
	}
	rng.Shuffle(len(w.jobs), func(i, j int) { w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i] })
	return w, nil
}

func (w *planService) cycle() int { return len(w.jobs) }

// startCycle replaces the service with a fresh one.
func (w *planService) startCycle() error {
	if err := w.close(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.tmp, "ledger-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.cache, err = plancache.New(plancache.Options{})
	if err != nil {
		return err
	}
	w.svc, err = service.New(service.Config{Cache: w.cache, LedgerDir: dir})
	if err != nil {
		return err
	}
	w.first = map[jobSpec]service.JobID{}
	w.plans = map[service.JobID]layout.Plan{}
	return nil
}

// close shuts the current service down and removes its ledger.
func (w *planService) close() error {
	if w.svc == nil {
		return nil
	}
	err := w.svc.Close()
	w.svc = nil
	return errors.Join(err, os.RemoveAll(w.dir))
}

func (w *planService) ledgerSize() int64 {
	fi, err := os.Stat(filepath.Join(w.dir, "ledger.jsonl"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// run is one job: Submit → Run → Plan(id). Checks: a duplicate returns
// the first submission's job ID and an identical plan with no planner
// call; a new job's plan validates.
func (w *planService) run(i int, t *tracer) (probe, error) {
	spec := w.jobs[i%len(w.jobs)]
	d := service.Descriptor{Tenant: spec.tenant, Scheme: spec.scheme, Env: w.env, Trace: w.pool[spec.trace]}
	before := w.cache.Stats()
	var ledger0 int64
	if t != nil {
		ledger0 = w.ledgerSize()
	}

	sp := t.begin("service.submit")
	rc, err := w.svc.Submit(d, "perfbench")
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("service.run")
	err = w.svc.Run()
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("service.plan")
	plan, err := w.svc.Plan(rc.ID)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	after := w.cache.Stats()
	computed := after.Misses - before.Misses
	served := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
	firstID, seen := w.first[spec]
	if rc.Duplicate != seen {
		return nil, fmt.Errorf("job %d: duplicate=%v, but the spec was seen=%v", i, rc.Duplicate, seen)
	}
	if seen {
		if rc.ID != firstID {
			return nil, fmt.Errorf("job %d: duplicate got job %s, first submission got %s", i, rc.ID, firstID)
		}
		if computed != 0 || served != 0 {
			return nil, fmt.Errorf("job %d: duplicate reached the plan cache (%d computed, %d served)", i, computed, served)
		}
		if !reflect.DeepEqual(plan, w.plans[rc.ID]) {
			return nil, fmt.Errorf("job %d: duplicate returned a different plan", i)
		}
	} else {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		w.first[spec] = rc.ID
		w.plans[rc.ID] = plan
	}

	if t != nil {
		dup := 0.0
		if rc.Duplicate {
			dup = 1
		}
		t.observe("service.dup_ratio", dup)
		t.observe("service.ledger_kb", float64(w.ledgerSize()-ledger0)/1024)
		t.observe("plancache.computed", float64(computed))
		if computed+served > 0 {
			t.observe("plancache.served_ratio", float64(served)/float64(computed+served))
		}
		if computed > 0 {
			observePlan(t, plan)
		}
		// JobID and the plan key each hash the full trace inside Submit
		// and Run, and a cache miss plans inside Run; the probe times the
		// two hashes and, on a miss, the planner standalone.
		return func() error {
			sp := t.standalone("iosig.digest")
			iosig.TraceDigest(d.Trace)
			t.end(sp)
			sp = t.standalone("plancache.key")
			plancache.KeyFor(d.Trace, d.Scheme, d.Env)
			t.end(sp)
			if computed == 0 {
				return nil
			}
			planner, err := layout.NewPlanner(d.Scheme)
			if err != nil {
				return err
			}
			sp = t.standalone("layout.plan." + d.Scheme.String())
			_, err = planner.Plan(d.Trace, d.Env)
			t.end(sp)
			return err
		}, nil
	}
	return nil, nil
}

// finish reports the simulated bandwidth of the MHA plans the service
// handed out: each pool trace is replayed on the plan served from the
// service's cache (bench.Config.RunScheme with that cache, so nothing is
// re-planned when the last cycle covered the trace).
func (w *planService) finish() (float64, int, error) {
	cfg := bench.Default()
	cfg.Env = w.env
	cfg.PlanCache = w.cache
	var bw []float64
	for _, tr := range w.pool {
		run, err := cfg.RunScheme(layout.MHA, tr)
		if err != nil {
			return 0, 0, err
		}
		if err := checkReplay(run.Result, tr); err != nil {
			return 0, 0, err
		}
		bw = append(bw, run.Result.Bandwidth())
	}
	return meanOf(bw), len(bw), nil
}
