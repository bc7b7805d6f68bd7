// Package pfs implements the simulated hybrid parallel file system: a
// metadata server (MDS) plus M HServers and N SServers, with files striped
// over the servers by per-file varied-size layouts.
//
// This is the repository's stand-in for OrangeFS in the paper's testbed.
// Clients contact the MDS for a file's metadata (layout, size) and then
// exchange data with the servers directly; a striped request completes
// when its slowest sub-request completes, which is the property every
// result in the paper rests on.
package pfs

import (
	"fmt"
	"sort"

	"mhafs/internal/device"
	"mhafs/internal/fault"
	"mhafs/internal/netmodel"
	"mhafs/internal/server"
	"mhafs/internal/sim"
	"mhafs/internal/stripe"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

// Config describes a cluster.
type Config struct {
	HServers int // number of HDD-backed servers (M)
	SServers int // number of SSD-backed servers (N)

	HDD device.Model
	SSD device.Model
	Net netmodel.Model

	// MDSLookup is the metadata-server time per lookup (file open /
	// layout fetch), seconds.
	MDSLookup float64

	// DefaultStripe is the stripe size files get when created without an
	// explicit layout — the paper's DEF scheme uses 64 KB.
	DefaultStripe int64

	// HDDOverrides / SSDOverrides replace the device model of individual
	// servers (by index within their class) — e.g. to model a degraded
	// "straggler" disk. The layout planners' cost model is class-level and
	// cannot see per-server differences; the overrides exist to study
	// exactly that blind spot.
	HDDOverrides map[int]device.Model
	SSDOverrides map[int]device.Model

	// Dataless drops payload materialization across the cluster: servers
	// charge full virtual-time costs but store no bytes, and the striping
	// planners reuse scratch buffers instead of gathering payloads. The XL
	// simulation tier runs dataless — it measures timing and layout
	// behaviour, never the bytes — while paper-scale clusters keep this
	// off and stay byte-accurate.
	Dataless bool
}

// DefaultConfig mirrors the paper's testbed: six HServers, two SServers,
// GbE, 64 KB default stripes.
func DefaultConfig() Config {
	return Config{
		HServers:      6,
		SServers:      2,
		HDD:           device.DefaultHDD(),
		SSD:           device.DefaultSSD(),
		Net:           netmodel.DefaultGigE(),
		MDSLookup:     200e-6,
		DefaultStripe: 64 * units.KB,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HServers < 0 || c.SServers < 0 || c.HServers+c.SServers == 0 {
		return fmt.Errorf("pfs: need at least one server (H=%d S=%d)", c.HServers, c.SServers)
	}
	if c.MDSLookup < 0 {
		return fmt.Errorf("pfs: negative MDS lookup time")
	}
	if c.DefaultStripe <= 0 {
		return fmt.Errorf("pfs: default stripe must be positive")
	}
	if err := c.HDD.Validate(); err != nil {
		return err
	}
	if err := c.SSD.Validate(); err != nil {
		return err
	}
	// Override maps are walked in sorted index order: with several invalid
	// entries the reported error must not depend on map iteration order.
	for _, i := range sortedOverrideKeys(c.HDDOverrides) {
		if i < 0 || i >= c.HServers {
			return fmt.Errorf("pfs: HDD override index %d out of range [0,%d)", i, c.HServers)
		}
		if err := c.HDDOverrides[i].Validate(); err != nil {
			return err
		}
	}
	for _, i := range sortedOverrideKeys(c.SSDOverrides) {
		if i < 0 || i >= c.SServers {
			return fmt.Errorf("pfs: SSD override index %d out of range [0,%d)", i, c.SServers)
		}
		if err := c.SSDOverrides[i].Validate(); err != nil {
			return err
		}
	}
	return c.Net.Validate()
}

// sortedOverrideKeys returns the override indices in increasing order.
func sortedOverrideKeys(m map[int]device.Model) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// File is the MDS's record of one file.
type File struct {
	Name   string
	Layout stripe.Layout
	Size   int64 // logical size: one past the highest byte written

	// Rotation spreads files across servers: file f's i-th HServer is the
	// physical HServer (i + Rotation) mod M, and likewise for SServers.
	// Real PFSs rotate each file's starting server so that many files with
	// identical layouts do not all hammer the same first server. Derived
	// deterministically from the name at Create.
	Rotation int
}

// Cluster is the simulated file system.
type Cluster struct {
	Eng *sim.Engine
	cfg Config

	hservers []*server.Server
	sservers []*server.Server
	mds      *sim.Resource

	files map[string]*File

	stripeMeter *stripe.Meter
	faults      *fault.Injector

	// Planning scratch: the split and sub-request slices are reused
	// across Plan calls (consumers use the plan synchronously), and zeros
	// is the shared stand-in payload every dataless sub-request slices —
	// only its length is ever consumed.
	splitScratch []stripe.SubRequest
	planScratch  []SubRequest
	zeros        []byte
}

// New builds a cluster on a fresh simulation engine.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Eng:   &sim.Engine{},
		cfg:   cfg,
		files: make(map[string]*File),
	}
	c.mds = sim.NewResource(c.Eng, "mds")
	for i := 0; i < cfg.HServers; i++ {
		dev := cfg.HDD
		if o, ok := cfg.HDDOverrides[i]; ok {
			dev = o
		}
		s, err := server.New(c.Eng, fmt.Sprintf("h%d", i), dev, cfg.Net)
		if err != nil {
			return nil, err
		}
		s.SetDataless(cfg.Dataless)
		c.hservers = append(c.hservers, s)
	}
	for j := 0; j < cfg.SServers; j++ {
		dev := cfg.SSD
		if o, ok := cfg.SSDOverrides[j]; ok {
			dev = o
		}
		s, err := server.New(c.Eng, fmt.Sprintf("s%d", j), dev, cfg.Net)
		if err != nil {
			return nil, err
		}
		s.SetDataless(cfg.Dataless)
		c.sservers = append(c.sservers, s)
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetTelemetry installs (or, with nil, removes) a telemetry registry
// across the storage layer: every server emits its per-request series and
// the striping path records per-region hits and fan-out. All observations
// are in virtual time, so enabling telemetry never perturbs results.
func (c *Cluster) SetTelemetry(reg *telemetry.Registry) {
	for _, s := range c.Servers() {
		s.SetTelemetry(reg)
	}
	if reg == nil {
		c.stripeMeter = nil
		return
	}
	c.stripeMeter = stripe.NewMeter(reg)
}

// DefaultLayout returns the cluster-wide DEF layout: every server, fixed
// stripe size.
func (c *Cluster) DefaultLayout() stripe.Layout {
	return stripe.Uniform(c.cfg.HServers, c.cfg.SServers, c.cfg.DefaultStripe)
}

// ServerFor resolves a layout server reference to the physical server,
// without any per-file rotation.
func (c *Cluster) ServerFor(ref stripe.ServerRef) *server.Server {
	if ref.Class == stripe.ClassH {
		return c.hservers[ref.Index]
	}
	return c.sservers[ref.Index]
}

// ServerForFile resolves a layout server reference for a specific file,
// applying the file's rotation within each server class.
func (c *Cluster) ServerForFile(f *File, ref stripe.ServerRef) *server.Server {
	if ref.Class == stripe.ClassH {
		return c.hservers[(ref.Index+f.Rotation)%len(c.hservers)]
	}
	return c.sservers[(ref.Index+f.Rotation)%len(c.sservers)]
}

// PhysicalIndex returns the physical within-class index the reference
// resolves to for this file — the rotation arithmetic ServerForFile
// applies, exposed for layers that reason about individual servers (the
// failover path excluding a down server).
func (c *Cluster) PhysicalIndex(f *File, ref stripe.ServerRef) int {
	if ref.Class == stripe.ClassH {
		return (ref.Index + f.Rotation) % len(c.hservers)
	}
	return (ref.Index + f.Rotation) % len(c.sservers)
}

// SetFaults attaches (or, with nil, detaches) a fault injector to every
// server of the cluster. The raw Cluster Write/Read path has no retry or
// failover (an injected fault surfaces as its error); resilient runs
// route through the I/O pipeline's retry and failover stages.
func (c *Cluster) SetFaults(in *fault.Injector) {
	c.faults = in
	for _, s := range c.Servers() {
		s.SetFaults(in)
	}
}

// Faults returns the attached injector (nil for a healthy cluster).
func (c *Cluster) Faults() *fault.Injector { return c.faults }

// nameHash derives a small deterministic rotation from a file name (FNV-1a).
func nameHash(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % 1024)
}

// Servers returns all servers in flat order (HServers then SServers).
func (c *Cluster) Servers() []*server.Server {
	out := make([]*server.Server, 0, len(c.hservers)+len(c.sservers))
	out = append(out, c.hservers...)
	out = append(out, c.sservers...)
	return out
}

// validateLayout checks that a layout fits this cluster.
func (c *Cluster) validateLayout(l stripe.Layout) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if l.M > c.cfg.HServers || l.N > c.cfg.SServers {
		return fmt.Errorf("pfs: layout %v exceeds cluster (%dH, %dS)", l, c.cfg.HServers, c.cfg.SServers)
	}
	return nil
}

// Create registers a new file with the given layout. Creating an existing
// name is an error.
//
//mhavet:coldpath per-file metadata creation, not per-request
func (c *Cluster) Create(name string, l stripe.Layout) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("pfs: empty file name")
	}
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("pfs: file %q exists", name)
	}
	if err := c.validateLayout(l); err != nil {
		return nil, err
	}
	f := &File{Name: name, Layout: l, Rotation: nameHash(name)}
	c.files[name] = f
	return f, nil
}

// CreateWithRotation registers a new file with an explicit rotation
// instead of the name-derived one. Degraded-mode failover uses it: with a
// layout one server short of its class, rotation (down+1) mod class-size
// covers every physical server except the unavailable one.
func (c *Cluster) CreateWithRotation(name string, l stripe.Layout, rotation int) (*File, error) {
	if rotation < 0 {
		return nil, fmt.Errorf("pfs: negative rotation %d", rotation)
	}
	f, err := c.Create(name, l)
	if err != nil {
		return nil, err
	}
	f.Rotation = rotation
	return f, nil
}

// CreateDefault creates a file with the DEF layout.
func (c *Cluster) CreateDefault(name string) (*File, error) {
	return c.Create(name, c.DefaultLayout())
}

// Lookup returns the file record for name.
func (c *Cluster) Lookup(name string) (*File, bool) {
	f, ok := c.files[name]
	return f, ok
}

// Remove deletes a file: its metadata and every server-side object
// holding its bytes.
func (c *Cluster) Remove(name string) {
	delete(c.files, name)
	for _, s := range c.Servers() {
		s.DeleteObject(name)
	}
}

// Files lists the registered file names (unordered).
func (c *Cluster) Files() []string {
	out := make([]string, 0, len(c.files))
	for n := range c.files {
		out = append(out, n)
	}
	return out
}

// OpenHandle models a client opening a file: one MDS lookup, after which
// the layout is cached client-side. done receives the virtual completion
// time.
func (c *Cluster) OpenHandle(name string, done func(f *File, end float64)) error {
	f, ok := c.files[name]
	if !ok {
		return fmt.Errorf("pfs: open %q: no such file", name)
	}
	c.mds.Acquire(c.cfg.MDSLookup, func(_, end float64) {
		if done != nil {
			done(f, end)
		}
	})
	return nil
}

// SubRequest is one server-bound piece of a striped request: the physical
// server, the server-side object, the contiguous local range, and the
// bytes moving. The I/O pipeline's stripe stage and the Cluster's own
// Write/Read share this plan, so both paths issue identical sub-requests.
type SubRequest struct {
	Server *server.Server
	Object string
	Local  int64
	// Data is the gathered write payload, or the landing buffer a read's
	// server bytes arrive in before scattering.
	Data []byte
	// Scatter, set on read plans, copies the server's contiguous local
	// bytes back into the round-interleaved positions of the caller's
	// buffer. It must run when the sub-request's data is available,
	// before completion is reported.
	Scatter func()
}

// PlanWrite computes the striped sub-requests of a write and extends the
// file size, without submitting anything. One coalesced sub-request per
// server, as a real PFS client issues: the per-server local range of a
// contiguous file extent is itself contiguous, so the server performs a
// single local access. The round-interleaved payload pieces are gathered
// into that local order.
func (c *Cluster) PlanWrite(f *File, off int64, data []byte) []SubRequest {
	if end := off + int64(len(data)); end > f.Size {
		f.Size = end
	}
	return c.plan(trace.OpWrite, f, off, data)
}

// PlanRead computes the striped sub-requests of a read, mirroring
// PlanWrite: one coalesced sub-request per server, each carrying a
// Scatter that lands its bytes in the right interleaved positions of buf.
func (c *Cluster) PlanRead(f *File, off int64, buf []byte) []SubRequest {
	return c.plan(trace.OpRead, f, off, buf)
}

// plan splits the extent into one sub-request per server. Only a
// byte-storing cluster moves payload (see attachPayload); on a dataless
// cluster every sub-request slices the shared zero buffer, whose length
// alone sizes the service time, and carries no scatter. The returned
// slice is planning scratch reused by the next plan; consumers use it
// synchronously, as the stripe stage and Write/Read do.
func (c *Cluster) plan(op trace.Op, f *File, off int64, data []byte) []SubRequest {
	n := int64(len(data))
	subs := f.Layout.AppendSplit(c.splitScratch[:0], off, n)
	c.splitScratch = subs
	if c.stripeMeter != nil {
		c.stripeMeter.ObserveSplit(f.Name, subs)
	}
	out := c.planScratch[:0]
	for _, sub := range subs {
		sr := SubRequest{Server: c.ServerForFile(f, sub.Server), Object: f.Name, Local: sub.Local}
		if c.cfg.Dataless {
			if sub.Size > int64(len(c.zeros)) {
				// Doubling scratch growth amortizes to zero per op.
				c.zeros = make([]byte, sub.Size*2) //mhavet:allow literal
			}
			sr.Data = c.zeros[:sub.Size]
		}
		out = append(out, sr)
	}
	if !c.cfg.Dataless {
		attachPayload(op, f.Layout, off, data, subs, out)
	}
	c.planScratch = out
	return out
}

// attachPayload gives each sub-request of a byte-accurate plan its bytes:
// a write's round-interleaved pieces gathered into local order, or a
// read's landing buffer plus the Scatter that copies it back into the
// caller's buffer. Segments ascend in global order, and each server's
// local order follows it, so filtering them per server yields the local
// sequence.
//
//mhavet:coldpath byte-accurate payload movement; dataless clusters never call it
func attachPayload(op trace.Op, l stripe.Layout, off int64, data []byte, subs []stripe.SubRequest, out []SubRequest) {
	segs := l.Segments(off, int64(len(data)))
	for i, sub := range subs {
		ref, buf := sub.Server, make([]byte, sub.Size)
		out[i].Data = buf
		if op == trace.OpWrite {
			var at int64
			for _, seg := range segs {
				if seg.Server == ref {
					at += int64(copy(buf[at:], data[seg.Global-off:seg.Global-off+seg.Size]))
				}
			}
			continue
		}
		out[i].Scatter = func() {
			var at int64
			for _, seg := range segs {
				if seg.Server == ref {
					at += int64(copy(data[seg.Global-off:seg.Global-off+seg.Size], buf[at:]))
				}
			}
		}
	}
}

// Write issues a striped write of data at offset off. done (optional)
// receives the virtual time the slowest sub-request completed and the
// first sub-request error (an injected fault: this raw path has no retry
// or failover — resilient runs route through the I/O pipeline). The call
// only schedules work; the caller drives the engine.
func (c *Cluster) Write(f *File, off int64, data []byte, done func(end float64, err error)) error {
	if f == nil {
		return fmt.Errorf("pfs: write to nil file")
	}
	return c.submit(trace.OpWrite, f, off, data, done)
}

// Read issues a striped read into buf from offset off; buf is fully
// populated when done runs without error. Reads past the current size
// return zeros, like a sparse file. Errors are reported as for Write.
func (c *Cluster) Read(f *File, off int64, buf []byte, done func(end float64, err error)) error {
	if f == nil {
		return fmt.Errorf("pfs: read from nil file")
	}
	return c.submit(trace.OpRead, f, off, buf, done)
}

// submit plans a striped Write/Read and submits every sub-request.
func (c *Cluster) submit(op trace.Op, f *File, off int64, data []byte, done func(end float64, err error)) error {
	if off < 0 {
		return fmt.Errorf("pfs: negative offset %d", off)
	}
	if len(data) == 0 {
		if done != nil {
			c.Eng.Schedule(0, func() { done(c.Eng.Now(), nil) })
		}
		return nil
	}
	var subs []SubRequest
	if op == trace.OpWrite {
		subs = c.PlanWrite(f, off, data)
	} else {
		subs = c.PlanRead(f, off, data)
	}
	st := &striped{open: len(subs), done: done}
	pieces := make([]stripedPiece, len(subs))
	for i, sub := range subs {
		pieces[i] = stripedPiece{op: st, scatter: sub.Scatter}
		sub.Server.Submit(server.Sub{
			Op: op, Object: sub.Object, Local: sub.Local,
			Bytes: int64(len(sub.Data)), Payload: sub.Data, Done: &pieces[i],
		})
	}
	return nil
}

// striped gathers the sub-request completions of one Write/Read: the
// slowest end time and the first error win, and the last arrival reports
// them.
type striped struct {
	open   int
	latest float64
	err    error
	done   func(end float64, err error)
}

// stripedPiece is one sub-request's server.Done.
type stripedPiece struct {
	op      *striped
	scatter func()
}

// IODone implements server.Done.
func (p *stripedPiece) IODone(end float64, err error) {
	if err == nil && p.scatter != nil {
		p.scatter()
	}
	st := p.op
	if end > st.latest {
		st.latest = end
	}
	if err != nil && st.err == nil {
		st.err = err
	}
	if st.open--; st.open == 0 && st.done != nil {
		st.done(st.latest, st.err)
	}
}

// WriteSync writes and runs the engine until the write completes,
// returning the completion time and the write's error. Only for
// single-threaded convenience use (examples, tests); concurrent workloads
// schedule explicitly.
func (c *Cluster) WriteSync(f *File, off int64, data []byte) (float64, error) {
	return c.sync(c.Write, f, off, data)
}

// ReadSync reads and runs the engine until the read completes.
func (c *Cluster) ReadSync(f *File, off int64, buf []byte) (float64, error) {
	return c.sync(c.Read, f, off, buf)
}

func (c *Cluster) sync(io func(*File, int64, []byte, func(float64, error)) error, f *File, off int64, data []byte) (float64, error) {
	var end float64
	var ioErr error
	if err := io(f, off, data, func(t float64, err error) { end, ioErr = t, err }); err != nil {
		return 0, err
	}
	c.Eng.Run()
	return end, ioErr
}

// ServerStats returns per-server statistics in flat order — the data
// behind Fig. 8's per-server I/O times.
func (c *Cluster) ServerStats() []server.Stats {
	srvs := c.Servers()
	out := make([]server.Stats, len(srvs))
	for i, s := range srvs {
		out[i] = s.Stats()
	}
	return out
}
