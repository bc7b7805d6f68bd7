package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"mhafs"
	"mhafs/internal/layout"
	"mhafs/internal/pfs"
	"mhafs/internal/reorder"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// facade-migrate shape: facadeTraces seeded IOR write traces (64+128 KB
// requests, 32 ranks) over a facadeFileBytes shared file each; op i uses
// trace i mod facadeTraces, and a cycle is every trace once.
const (
	facadeTraces    = 15
	facadeFile      = "app.dat"
	facadeFileBytes = 32 * units.MB
	verifyChunk     = units.MB
)

// facadeSchemes is the per-op scheme pattern: MHA, the scheme that
// migrates hundreds of extents, runs two ops in three and HARL the third,
// so the median op is an MHA op rather than the boundary between the two.
// facadeTraces is a multiple of its length, so each trace always runs
// under the same scheme.
var facadeSchemes = []layout.Scheme{layout.MHA, layout.MHA, layout.HARL}

// facadeMigrate drives the paper's online workflow through the public
// mhafs façade with bytes kept: a traced write run, offset stamps on every
// record, a checksum read-back, Optimize, a second checksum, and a
// redirected read run.
type facadeMigrate struct {
	write, read []trace.Trace
	mha         map[int]float64 // read-run bandwidth under MHA, by trace
}

func newFacadeMigrate(seed int64) (*facadeMigrate, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &facadeMigrate{mha: map[int]float64{}}
	for j := 0; j < facadeTraces; j++ {
		cfg := workload.IORConfig{
			File: facadeFile, Sizes: []int64{64 * units.KB, 128 * units.KB}, Procs: []int{iorProcs},
			FileSize: facadeFileBytes, Shuffle: true, Seed: rng.Int63(),
		}
		cfg.Op = trace.OpWrite
		wr, err := workload.IOR(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Op = trace.OpRead
		rd, err := workload.IOR(cfg)
		if err != nil {
			return nil, err
		}
		w.write, w.read = append(w.write, wr), append(w.read, rd)
	}
	return w, nil
}

func (w *facadeMigrate) cycle() int        { return facadeTraces }
func (w *facadeMigrate) startCycle() error { return nil }
func (w *facadeMigrate) close() error      { return nil }

func (w *facadeMigrate) run(i int, t *tracer) (probe, error) {
	scheme := facadeSchemes[i%len(facadeSchemes)]
	idx := i % facadeTraces
	write, read := w.write[idx], w.read[idx]
	sp := t.begin("mhafs.new")
	sys, err := mhafs.NewSystem(mhafs.DefaultConfig())
	t.end(sp)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	sp = t.begin("mhafs.trace_run")
	res, err := sys.Replay(write)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkReplay(res, write); err != nil {
		return nil, fmt.Errorf("write run: %w", err)
	}
	sys.SetTracing(false) // the stamps and read-backs are not part of the profile
	sp = t.begin("mhafs.stamp")
	err = stampRecords(sys, write)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	before, err := verify(sys, traceEnd(write), t)
	if err != nil {
		return nil, err
	}
	collected := sys.Trace()
	if len(collected) != len(write) {
		return nil, fmt.Errorf("collector traced %d records of %d", len(collected), len(write))
	}

	sp = t.begin("mhafs.optimize")
	err = sys.Optimize(scheme, nil)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	plan := sys.Plan()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	after, err := verify(sys, traceEnd(write), t)
	if err != nil {
		return nil, err
	}
	if before != after {
		return nil, fmt.Errorf("%v: checksum %08x before Optimize, %08x after", scheme, before, after)
	}

	sp = t.begin("mhafs.read_run")
	res, err = sys.Replay(read)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if err := checkReplay(res, read); err != nil {
		return nil, fmt.Errorf("read run: %w", err)
	}
	if scheme == mhafs.MHA {
		w.mha[idx] = res.Bandwidth()
	}
	if t == nil {
		return nil, nil
	}
	t.observe("server.imbalance", imbalance(res))
	return func() error { return probeOptimize(collected, plan, scheme, t) }, nil
}

// traceEnd is the first byte past the trace's highest extent.
func traceEnd(tr trace.Trace) int64 {
	var e int64
	for _, r := range tr {
		e = max(e, r.Offset+r.Size)
	}
	return e
}

// stampRecords overwrites the first 8 bytes of every record of the write
// trace with the record's offset. The replay fills every record of one
// size with the same bytes, so without the stamps a migration that swapped
// two same-size extents would leave the file's checksum unchanged.
func stampRecords(sys *mhafs.System, write trace.Trace) error {
	h, err := sys.Open(facadeFile, 0)
	if err != nil {
		return err
	}
	var tag [8]byte
	for _, r := range write {
		binary.LittleEndian.PutUint64(tag[:], uint64(r.Offset))
		if _, err := h.WriteAtSync(tag[:], r.Offset); err != nil {
			return err
		}
	}
	return nil
}

// verify reads the file's first size bytes back through the middleware
// (redirected once optimized) and returns their checksum.
func verify(sys *mhafs.System, size int64, t *tracer) (uint32, error) {
	sp := t.begin("mhafs.verify")
	defer t.end(sp)
	h, err := sys.Open(facadeFile, 0)
	if err != nil {
		return 0, err
	}
	return checksum(func(buf []byte, off int64) error {
		_, err := h.ReadAtSync(buf, off)
		return err
	}, size)
}

// checksum returns the CRC-32 of bytes [0, size) as readAt returns them,
// read in verifyChunk pieces.
func checksum(readAt func(buf []byte, off int64) error, size int64) (uint32, error) {
	buf := make([]byte, verifyChunk)
	var sum uint32
	for off := int64(0); off < size; off += verifyChunk {
		n := min(verifyChunk, size-off)
		if err := readAt(buf[:n], off); err != nil {
			return 0, err
		}
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
	}
	return sum, nil
}

func (w *facadeMigrate) finish() (float64, int, error) { return meanByIndex(w.mha), len(w.mha), nil }

// probeOptimize times the two layers inside System.Optimize standalone:
// the scheme's planner on the collected trace, and reorder.Apply with
// migration on a fresh cluster holding the file's bytes under the
// default layout, as the system's did before Optimize.
func probeOptimize(tr trace.Trace, plan layout.Plan, scheme layout.Scheme, t *tracer) error {
	cfg := mhafs.DefaultConfig()
	planner, err := layout.NewPlanner(scheme)
	if err != nil {
		return err
	}
	sp := t.standalone("layout.plan." + scheme.String())
	_, err = planner.Plan(tr, cfg.Plan)
	t.end(sp)
	if err != nil {
		return err
	}
	observePlan(t, plan)

	cl, err := pfs.New(cfg.Cluster)
	if err != nil {
		return err
	}
	payload := make([]byte, tr.MaxSize())
	for i := range payload {
		payload[i] = byte(i*7 + 1)
	}
	for _, f := range tr.Files() {
		if _, err := cl.CreateDefault(f); err != nil {
			return err
		}
	}
	for _, r := range tr {
		f, _ := cl.Lookup(r.File)
		reorder.RawWrite(cl, f, r.Offset, payload[:r.Size])
	}
	sp = t.standalone("reorder.apply")
	placement, err := reorder.Apply(cl, plan, reorder.Options{Migrate: true})
	t.end(sp)
	if err != nil {
		return err
	}
	if err := placement.Close(); err != nil {
		return err
	}
	var moved int64
	for _, m := range plan.Mappings {
		if m.RFile != m.OFile {
			moved += m.Length
		}
	}
	t.observe("reorder.mappings", float64(len(plan.Mappings)))
	t.observe("reorder.migrated_mb", float64(moved)/mib)
	return nil
}
