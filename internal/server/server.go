// Package server models one file server of a hybrid parallel file system:
// a storage device (HDD or SSD), the network link to it, a FIFO request
// queue, and the bytes it stores.
//
// A server services sub-requests one at a time. The service time of an
// n-byte sub-request is the device time α + n·β plus the network time
// n·t (+ per-message overhead) — exactly the per-server term of the
// paper's cost model (Eq. 2), so the simulator realizes the model's
// assumptions and adds queueing on top.
package server

import (
	"fmt"

	"mhafs/internal/device"
	"mhafs/internal/fault"
	"mhafs/internal/netmodel"
	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
)

// Server is one storage server in the simulated cluster.
type Server struct {
	Name string
	Dev  device.Model
	Net  netmodel.Model

	eng    *sim.Engine
	res    *sim.Resource
	stores map[string]*ByteStore
	tel    *serverMetrics
	faults *fault.Injector

	// dataless servers charge full virtual-time costs but move no bytes;
	// free is the pool of non-cancellable submission descriptors (see
	// submit.go).
	dataless bool
	free     []*Pending

	readBytes  int64
	writeBytes int64
	reads      int64
	writes     int64
}

// New creates a server bound to the simulation engine.
func New(eng *sim.Engine, name string, dev device.Model, net netmodel.Model) (*Server, error) {
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("server %s: %w", name, err)
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("server %s: %w", name, err)
	}
	return &Server{
		Name:   name,
		Dev:    dev,
		Net:    net,
		eng:    eng,
		res:    sim.NewResource(eng, name),
		stores: make(map[string]*ByteStore),
	}, nil
}

// Telemetry series emitted per server. Busy time accumulates actual
// service seconds (the per-server I/O time of Fig. 8); queue wait is the
// submit-to-service-start residency behind the FIFO.
const (
	MetricOps       = "server_ops_total"
	MetricBytes     = "server_bytes_total"
	MetricBusy      = "server_busy_seconds_total"
	MetricQueueWait = "server_queue_wait_seconds"
	MetricService   = "server_service_seconds"
)

// serverMetrics caches this server's series handles so the per-request
// emission path does not re-resolve registry identities.
type serverMetrics struct {
	readOps, writeOps     *telemetry.Counter
	readBytes, writeBytes *telemetry.Counter
	busy                  *telemetry.Counter
	queueWait             *telemetry.Histogram
	service               *telemetry.Histogram
}

// SetTelemetry installs (or, with nil, removes) a registry the server
// emits per-request observations into: op and byte counters, accumulated
// busy seconds, and queue-wait/service-time histograms, all labeled by
// server name and measured in virtual time.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tel = nil
		return
	}
	srv := telemetry.L("server", s.Name)
	s.tel = &serverMetrics{
		readOps:    reg.Counter(MetricOps, srv, telemetry.L("op", "read")),
		writeOps:   reg.Counter(MetricOps, srv, telemetry.L("op", "write")),
		readBytes:  reg.Counter(MetricBytes, srv, telemetry.L("op", "read")),
		writeBytes: reg.Counter(MetricBytes, srv, telemetry.L("op", "write")),
		busy:       reg.Counter(MetricBusy, srv),
		queueWait:  reg.Histogram(MetricQueueWait, telemetry.LatencyBuckets(), srv),
		service:    reg.Histogram(MetricService, telemetry.LatencyBuckets(), srv),
	}
}

// observe folds one completed sub-request into the telemetry series.
func (m *serverMetrics) observe(op trace.Op, n int64, submit, start, end float64) {
	if op == trace.OpWrite {
		m.writeOps.Inc()
		m.writeBytes.Add(float64(n))
	} else {
		m.readOps.Inc()
		m.readBytes.Add(float64(n))
	}
	m.busy.Add(end - start)
	m.queueWait.Observe(start - submit)
	m.service.Observe(end - start)
}

// ServiceTime returns the device+network time for one n-byte sub-request
// arriving at an idle server.
func (s *Server) ServiceTime(op trace.Op, n int64) float64 {
	return s.serviceTimeAt(op, n, 0)
}

// serviceTimeAt includes the device's queue-depth seek interference.
func (s *Server) serviceTimeAt(op trace.Op, n int64, depth int) float64 {
	if n <= 0 {
		return 0
	}
	return s.Dev.ServiceTimeAt(op, n, depth) + s.Net.TransferTime(n)
}

// Object returns the byte store backing one file's data on this server,
// creating it on first use. A PFS server keeps a separate local object per
// file, so distinct files never collide in local offset space.
func (s *Server) Object(name string) *ByteStore {
	st, ok := s.stores[name]
	if !ok {
		st = NewByteStore(0)
		s.stores[name] = st
	}
	return st
}

// SetFaults attaches (or, with nil, detaches) a fault injector: the hook
// Submit consults at service time. With no injector the submit path is
// byte-for-byte the historical healthy one.
func (s *Server) SetFaults(in *fault.Injector) { s.faults = in }

// Faults returns the attached injector (nil when the server is healthy).
func (s *Server) Faults() *fault.Injector { return s.faults }

// Stats summarizes the server's activity.
type Stats struct {
	Name       string
	Kind       device.Kind
	Reads      int64
	Writes     int64
	ReadBytes  int64
	WriteBytes int64
	BusyTime   float64 // total service time (the per-server I/O time of Fig. 8)
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Name:       s.Name,
		Kind:       s.Dev.Kind,
		Reads:      s.reads,
		Writes:     s.writes,
		ReadBytes:  s.readBytes,
		WriteBytes: s.writeBytes,
		BusyTime:   s.res.BusyTime(),
	}
}

// DeleteObject discards the named object's bytes (a no-op for unknown
// names).
func (s *Server) DeleteObject(name string) {
	delete(s.stores, name)
}

// Objects returns the names of the objects stored on this server.
func (s *Server) Objects() []string {
	out := make([]string, 0, len(s.stores))
	for n := range s.stores {
		out = append(out, n)
	}
	return out
}
