// Package plancache is a deterministic, content-addressed cache for
// layout plans.
//
// Every planner in this repository is a pure function of its inputs: the
// same trace, scheme and environment produce byte-identical plans
// (DESIGN.md §12). That purity makes memoization provably safe — a plan
// may be reused anywhere its inputs recur, across bench cells, fault
// scenarios, re-planning generations and (with the on-disk layer) whole
// processes. The key is a sha256 over a canonical binary encoding of
// everything a planner reads: the trace digest (iosig.TraceDigest), the
// scheme, every Env knob that can steer the plan, and a per-scheme
// version constant (layout.PlannerVersion) so a planner change
// invalidates its entries.
//
// Env.Workers is deliberately excluded from the key: plans are
// bit-identical at every worker count (the Env contract), so a plan
// computed at workers=8 serves a workers=1 caller byte for byte.
//
// Concurrent callers of the same key are single-flighted: the first
// caller computes, the rest block on its completion channel and receive
// the same Plan value. The returned Plan is therefore shared — callers
// must treat it (slices included) as immutable, which everything
// downstream of the planners already does.
//
// The package sits in mhavet's DeterministicPackages (a cached plan must
// be a pure function of its key — no wall-clock freshness) and
// ConcurrencyAllowedPackages (the single-flight map's locking is
// sanctioned).
package plancache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"mhafs/internal/iosig"
	"mhafs/internal/layout"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// Key is the content address of a plan: sha256 over the canonical
// encoding of every planner input.
type Key [sha256.Size]byte

// String returns the lowercase hex form (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyFormat versions the key encoding itself; bumping it orphans every
// existing key (memory and disk) at once.
const keyFormat = 1

// KeyFor computes the cache key of planning tr with scheme under env.
// The encoding is fixed-width little-endian with length-prefixed strings,
// so it is injective; field order is frozen by the tests. Env.Workers is
// excluded — see the package comment.
func KeyFor(tr trace.Trace, scheme layout.Scheme, env layout.Env) Key {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		io.WriteString(h, s)
	}

	str("mhafs-plan-cache")
	u64(keyFormat)
	u64(uint64(scheme))
	i64(int64(layout.PlannerVersion(scheme)))

	i64(int64(env.M))
	i64(int64(env.N))
	p := env.Params
	f64(float64(p.T))
	f64(p.PerMessage)
	f64(p.AlphaH)
	f64(float64(p.BetaH))
	f64(p.AlphaSR)
	f64(float64(p.BetaSR))
	f64(p.AlphaSW)
	f64(float64(p.BetaSW))
	f64(p.SeekInterference)
	f64(p.SeekInterferenceCap)
	i64(env.DefaultStripe)
	i64(env.Step)
	i64(int64(env.MaxRegions))
	f64(env.EpochWindow)
	i64(env.Seed)
	str(env.Tag)

	d := iosig.TraceDigest(tr)
	h.Write(d[:])

	var k Key
	h.Sum(k[:0])
	return k
}

// Outcome reports how GetOrPlan satisfied a call.
type Outcome uint8

// Outcomes.
const (
	// Computed: this call ran the planner (a miss everywhere).
	Computed Outcome = iota
	// Hit: served from a completed in-memory entry.
	Hit
	// Coalesced: blocked on another caller's in-flight computation and
	// received its result.
	Coalesced
	// DiskHit: loaded from the on-disk layer (and now in memory).
	DiskHit
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case DiskHit:
		return "disk-hit"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Stats is a snapshot of the cache counters. Misses, DiskHits and the
// disk error counters are scheduling-independent (single-flight runs
// exactly one computation per distinct key); the Hits/Coalesced split
// depends on which caller got there first and is exported for tests,
// not for telemetry — EmitTelemetry publishes only the deterministic
// aggregates.
type Stats struct {
	Hits      uint64 // served from a completed in-memory entry
	Misses    uint64 // planner executions (one per distinct key)
	Coalesced uint64 // callers that waited on an in-flight computation

	DiskHits      uint64 // entries loaded from the on-disk layer
	DiskCorrupt   uint64 // on-disk entries rejected by integrity checks
	DiskStale     uint64 // on-disk entries from another format/planner version
	DiskWriteErrs uint64 // failed best-effort writes (entry recomputed next process)
}

// entry is one key's slot: the single-flight rendezvous plus, once ready,
// the shared result.
type entry struct {
	done  chan struct{} // closed when plan/err are final
	ready bool          // set under Cache.mu when plan/err are final
	plan  layout.Plan
	err   error
}

// Cache memoizes plans by content address. The zero value is not usable;
// construct with New. A Cache is safe for concurrent use.
type Cache struct {
	dir string // on-disk layer root; empty = memory-only

	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
}

// Options configure a cache.
type Options struct {
	// Dir enables the on-disk layer: canonical-JSON plan files named
	// <key>.plan.json under this directory, fingerprint-checked on load
	// (disk.go). Empty keeps the cache memory-only.
	Dir string
}

// New builds a cache, creating the on-disk directory when configured.
func New(opts Options) (*Cache, error) {
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("plancache: %w", err)
		}
	}
	return &Cache{dir: opts.Dir, entries: make(map[Key]*entry)}, nil
}

// FromMode builds a cache from the CLIs' -plan-cache flag: "mem" shares
// plans within the process, "dir" additionally persists them under dir,
// "off" returns nil (callers treat a nil cache as caching disabled).
func FromMode(mode, dir string) (*Cache, error) {
	switch mode {
	case "off":
		return nil, nil
	case "mem":
		return New(Options{})
	case "dir":
		if dir == "" {
			return nil, fmt.Errorf("plancache: mode dir needs a directory")
		}
		return New(Options{Dir: dir})
	default:
		return nil, fmt.Errorf("plancache: unknown mode %q (want mem, dir or off)", mode)
	}
}

// GetOrPlan returns the plan for key, running compute at most once per
// key per process: the first caller computes (after consulting the
// on-disk layer), concurrent callers block until it finishes, later
// callers hit the completed entry. Errors are cached like plans — the
// planners are deterministic, so a failing key fails every time and
// re-running it would only repeat the work.
//
// The returned Plan is shared across every caller of the key and must be
// treated as immutable. The in-memory hit path performs no allocations.
func (c *Cache) GetOrPlan(key Key, compute func() (layout.Plan, error)) (layout.Plan, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.ready {
			c.stats.Hits++
			plan, err := e.plan, e.err
			c.mu.Unlock()
			return plan, Hit, err
		}
		c.stats.Coalesced++
		c.mu.Unlock()
		<-e.done
		// done closes after plan/err are written: the channel receive
		// orders this read after those writes.
		return e.plan, Coalesced, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	outcome := Computed
	plan, loaded, corrupt, stale := c.loadDisk(key)
	var err error
	var writeErr bool
	if loaded {
		outcome = DiskHit
	} else {
		plan, err = compute()
		if err == nil && c.dir != "" {
			// Best-effort: a failed write costs a recompute in a future
			// process, never the current result.
			writeErr = c.storeDisk(key, plan) != nil
		}
	}

	c.mu.Lock()
	e.plan, e.err, e.ready = plan, err, true
	if outcome == DiskHit {
		c.stats.DiskHits++
	} else {
		c.stats.Misses++
	}
	c.stats.DiskCorrupt += corrupt
	c.stats.DiskStale += stale
	if writeErr {
		c.stats.DiskWriteErrs++
	}
	c.mu.Unlock()
	close(e.done)
	return plan, outcome, err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EmitTelemetry publishes the scheduling-independent aggregates into reg:
//
//	plan_cache_requests_total{result="computed"|"served"}
//	plan_cache_disk_total{result="hit"|"corrupt"|"stale"}
//
// "computed" counts planner executions (exactly one per distinct key,
// by single-flight) and "served" counts every call answered without
// planning (memory hits, coalesced waiters, disk hits). Both are
// functions of the workload alone. The finer hit-vs-coalesced split
// depends on goroutine scheduling and stays out of telemetry — snapshots
// must be byte-identical at every worker count; Stats exposes the split
// for tests. Counters are registered eagerly (even at zero) so the
// snapshot's series set does not depend on what the run happened to do.
func (c *Cache) EmitTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s := c.Stats()
	reg.Counter("plan_cache_requests_total", telemetry.L("result", "computed")).Add(float64(s.Misses))
	reg.Counter("plan_cache_requests_total", telemetry.L("result", "served")).Add(float64(s.Hits + s.Coalesced + s.DiskHits))
	reg.Counter("plan_cache_disk_total", telemetry.L("result", "hit")).Add(float64(s.DiskHits))
	reg.Counter("plan_cache_disk_total", telemetry.L("result", "corrupt")).Add(float64(s.DiskCorrupt))
	reg.Counter("plan_cache_disk_total", telemetry.L("result", "stale")).Add(float64(s.DiskStale))
}

// cachedPlanner routes a Planner's Plan calls through a cache.
type cachedPlanner struct {
	p layout.Planner
	c *Cache
}

// Wrap returns p with every Plan call memoized through c; a nil cache
// returns p unchanged. It is the one cached-planner entry point, for
// every caller that keys by trace content and does not need the Outcome:
// the bench harness, mhafs.System, mhactl plan and the plan service.
func Wrap(p layout.Planner, c *Cache) layout.Planner {
	if c == nil {
		return p
	}
	return cachedPlanner{p: p, c: c}
}

func (w cachedPlanner) Scheme() layout.Scheme { return w.p.Scheme() }

func (w cachedPlanner) Plan(tr trace.Trace, env layout.Env) (layout.Plan, error) {
	plan, _, err := w.c.GetOrPlan(KeyFor(tr, w.p.Scheme(), env), func() (layout.Plan, error) {
		return w.p.Plan(tr, env)
	})
	return plan, err
}
