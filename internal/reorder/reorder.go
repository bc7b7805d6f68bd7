// Package reorder implements the placement and redirection phases of MHA:
// applying a layout plan to a cluster (creating region files, populating
// the DRT and RST, migrating data) and translating run-time requests to
// their reordered locations.
//
// Placement and migration run offline, between application runs, exactly
// as in the paper — the data movement is therefore performed directly on
// the server byte stores without consuming virtual time.
package reorder

import (
	"fmt"

	"mhafs/internal/layout"
	"mhafs/internal/pfs"
	"mhafs/internal/region"
	"mhafs/internal/telemetry"
	"mhafs/internal/units"
)

// Options configures Apply.
type Options struct {
	// DRTPath / RSTPath persist the tables; empty keeps them in memory.
	DRTPath string
	RSTPath string
	// Migrate copies data of mapped extents from the original files into
	// the region files (required before read workloads; writes re-create
	// the data anyway).
	Migrate bool

	// Via, when non-nil, is the previous generation's DRT: migrated bytes
	// are read from wherever that table says they currently live (the old
	// regions), not from the original file. Used by dynamic
	// re-optimization.
	Via *region.DRT
}

// Placement is the applied state of a plan: its tables plus the cluster
// it was applied to.
type Placement struct {
	DRT  *region.DRT
	RST  *region.RST
	Plan layout.Plan

	// Created lists the region files this placement's Apply newly created
	// on the cluster (regions adopted from an earlier identical layout are
	// not repeated here). Garbage collection uses it to know exactly which
	// files a retired generation left behind.
	Created []string

	cluster *pfs.Cluster
}

// RegionFiles returns the names of every region file the placement's plan
// references (created or adopted), in plan order.
func (p *Placement) RegionFiles() []string {
	out := make([]string, 0, len(p.Plan.Regions))
	for _, r := range p.Plan.Regions {
		out = append(out, r.File)
	}
	return out
}

// Apply materializes a plan: creates every region file with its optimized
// layout, fills the DRT with the plan's mappings and the RST with the
// region layouts, and optionally migrates existing data.
func Apply(c *pfs.Cluster, plan layout.Plan, opts Options) (*Placement, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	drt, err := region.OpenDRT(opts.DRTPath)
	if err != nil {
		return nil, err
	}
	rst, err := region.OpenRST(opts.RSTPath)
	if err != nil {
		drt.Close()
		return nil, err
	}
	p := &Placement{DRT: drt, RST: rst, Plan: plan, cluster: c}

	for _, r := range plan.Regions {
		if existing, ok := c.Lookup(r.File); ok {
			if existing.Layout != r.Layout {
				return nil, fmt.Errorf("reorder: region %s exists with layout %v, plan wants %v",
					r.File, existing.Layout, r.Layout)
			}
		} else if _, err := c.Create(r.File, r.Layout); err != nil {
			return nil, fmt.Errorf("reorder: create region %s: %w", r.File, err)
		} else {
			p.Created = append(p.Created, r.File)
		}
		if err := rst.Set(r.File, r.Layout); err != nil {
			return nil, err
		}
	}
	for _, m := range plan.Mappings {
		if err := drt.Add(m); err != nil {
			return nil, err
		}
	}
	if opts.Migrate {
		if err := p.migrate(opts.Via); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// migrate copies every mapped extent into its region, directly on the
// byte stores (offline, no virtual time). Sources are the original files,
// or — when re-optimizing — wherever the previous DRT locates the bytes.
func (p *Placement) migrate(via *region.DRT) error {
	for _, m := range p.Plan.Mappings {
		dst, ok := p.cluster.Lookup(m.RFile)
		if !ok {
			return fmt.Errorf("reorder: migrate: region %s missing", m.RFile)
		}
		if via != nil {
			if err := copyVia(p.cluster, via, m, dst); err != nil {
				return err
			}
			continue
		}
		src, ok := p.cluster.Lookup(m.OFile)
		if !ok || src.Size == 0 || m.RFile == m.OFile {
			continue // nothing to move
		}
		n := m.Length
		if m.OOffset >= src.Size {
			continue
		}
		if m.OOffset+n > src.Size {
			n = src.Size - m.OOffset
		}
		if err := RawCopy(p.cluster, src, m.OOffset, dst, m.ROffset, n); err != nil {
			return err
		}
	}
	return nil
}

// copyVia migrates one mapping's bytes from their current locations (as
// recorded by the previous generation's DRT) into the new region.
func copyVia(c *pfs.Cluster, via *region.DRT, m region.Mapping, dst *pfs.File) error {
	var cursor int64
	for _, tg := range via.Translate(m.OFile, m.OOffset, m.Length) {
		src, ok := c.Lookup(tg.File)
		if !ok {
			// The bytes were never materialized anywhere; skip the piece.
			cursor += tg.Size
			continue
		}
		if err := RawCopy(c, src, tg.Offset, dst, m.ROffset+cursor, tg.Size); err != nil {
			return err
		}
		cursor += tg.Size
	}
	return nil
}

// rawCopyChunk bounds migration buffer memory.
const rawCopyChunk = 4 * units.MB

// RawCopy copies n bytes between two files of the cluster using layout
// math directly on the server byte stores — an offline, zero-virtual-time
// data movement.
func RawCopy(c *pfs.Cluster, src *pfs.File, srcOff int64, dst *pfs.File, dstOff, n int64) error {
	if n < 0 || srcOff < 0 || dstOff < 0 {
		return fmt.Errorf("reorder: invalid copy extent (src %d, dst %d, n %d)", srcOff, dstOff, n)
	}
	buf := make([]byte, rawCopyChunk)
	for n > 0 {
		chunk := n
		if chunk > rawCopyChunk {
			chunk = rawCopyChunk
		}
		b := buf[:chunk]
		RawRead(c, src, srcOff, b)
		RawWrite(c, dst, dstOff, b)
		srcOff += chunk
		dstOff += chunk
		n -= chunk
	}
	return nil
}

// RawRead fills buf from the file without consuming virtual time.
func RawRead(c *pfs.Cluster, f *pfs.File, off int64, buf []byte) {
	for _, seg := range f.Layout.Segments(off, int64(len(buf))) {
		srv := c.ServerForFile(f, seg.Server)
		srv.Object(f.Name).ReadAt(buf[seg.Global-off:seg.Global-off+seg.Size], seg.Local)
	}
}

// RawWrite stores buf into the file without consuming virtual time,
// updating the file size.
func RawWrite(c *pfs.Cluster, f *pfs.File, off int64, buf []byte) {
	n := int64(len(buf))
	for _, seg := range f.Layout.Segments(off, n) {
		srv := c.ServerForFile(f, seg.Server)
		srv.Object(f.Name).WriteAt(buf[seg.Global-off:seg.Global-off+seg.Size], seg.Local)
	}
	if off+n > f.Size {
		f.Size = off + n
	}
}

// Close releases the placement's tables.
func (p *Placement) Close() error {
	err1 := p.DRT.Close()
	err2 := p.RST.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Redirector is the run-time component that forwards user requests to
// their reordered locations via the DRT (the paper's redirection phase).
type Redirector struct {
	drt *region.DRT

	// LookupTime is the client-side cost of one DRT consultation in
	// seconds; the middleware charges it per request (Fig. 14 measures
	// exactly this overhead).
	LookupTime float64

	lookups uint64
	tel     *redirectorMetrics
}

// Telemetry series emitted by the redirection phase. A lookup is a hit
// when any piece of the extent was translated into a region file, a miss
// when the whole extent passed through unmapped; mapped/identity bytes
// break the same split down by volume.
const (
	MetricDRTLookups       = "drt_lookups_total"
	MetricDRTHits          = "drt_redirect_hits_total"
	MetricDRTMisses        = "drt_redirect_misses_total"
	MetricDRTMappedBytes   = "drt_mapped_bytes_total"
	MetricDRTIdentityBytes = "drt_identity_bytes_total"
	MetricDRTTargets       = "drt_targets_per_lookup"
)

// redirectorMetrics caches the redirector's series handles.
type redirectorMetrics struct {
	lookups       *telemetry.Counter
	hits, misses  *telemetry.Counter
	mappedBytes   *telemetry.Counter
	identityBytes *telemetry.Counter
	targets       *telemetry.Histogram
}

// SetTelemetry installs (or, with nil, removes) a registry the redirector
// emits DRT lookup observations into.
func (r *Redirector) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		r.tel = nil
		return
	}
	r.tel = &redirectorMetrics{
		lookups:       reg.Counter(MetricDRTLookups),
		hits:          reg.Counter(MetricDRTHits),
		misses:        reg.Counter(MetricDRTMisses),
		mappedBytes:   reg.Counter(MetricDRTMappedBytes),
		identityBytes: reg.Counter(MetricDRTIdentityBytes),
		targets:       reg.Histogram(MetricDRTTargets, telemetry.FanoutBuckets()),
	}
}

// NewRedirector wraps a DRT. lookupTime may be 0 (free redirection). The
// panics below are backstops for programmer errors: every config path
// (bench.Config.Validate, config.Apply) validates the lookup cost before
// it reaches this constructor.
func NewRedirector(drt *region.DRT, lookupTime float64) *Redirector {
	if drt == nil {
		panic("reorder: nil DRT")
	}
	if lookupTime < 0 {
		panic("reorder: negative lookup time")
	}
	return &Redirector{drt: drt, LookupTime: lookupTime}
}

// SchemeRedirector is the paper's redirection rule for a layout scheme:
// DEF runs without redirection (nil), MHA charges lookup per DRT
// consultation, and AAL and HARL, which restripe in place in the paper,
// route through the DRT for mechanics but charge no lookup.
func SchemeRedirector(scheme layout.Scheme, drt *region.DRT, lookup float64) *Redirector {
	switch scheme {
	case layout.DEF:
		return nil
	case layout.MHA:
		return NewRedirector(drt, lookup)
	default:
		return NewRedirector(drt, 0)
	}
}

// Resolve translates the extent to its current locations.
func (r *Redirector) Resolve(file string, off, n int64) []region.Target {
	r.lookups++
	targets := r.drt.Translate(file, off, n)
	if tel := r.tel; tel != nil {
		tel.lookups.Inc()
		tel.targets.Observe(float64(len(targets)))
		hit := false
		for _, tg := range targets {
			if tg.Mapped {
				hit = true
				tel.mappedBytes.Add(float64(tg.Size))
			} else {
				tel.identityBytes.Add(float64(tg.Size))
			}
		}
		if hit {
			tel.hits.Inc()
		} else {
			tel.misses.Inc()
		}
	}
	return targets
}

// Lookups returns the number of Resolve calls served.
func (r *Redirector) Lookups() uint64 { return r.lookups }

// Resume wraps already-opened (reloaded) tables as a placement, for
// recovery flows that re-attach persisted DRT/RST state to a fresh
// cluster. The plan field is empty — the regions exist on the cluster and
// in the RST.
func Resume(c *pfs.Cluster, drt *region.DRT, rst *region.RST) *Placement {
	return &Placement{DRT: drt, RST: rst, cluster: c}
}
