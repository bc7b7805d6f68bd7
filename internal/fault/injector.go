package fault

import (
	"fmt"
	"sort"

	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
)

// Decision is the fault state a server applies to one sub-request
// attempt. The zero value is NOT healthy (Scale 0); use Healthy().
type Decision struct {
	Scale     float64 // combined device-time multiplier, 1 = healthy
	Transient bool    // the attempt fails with ErrTransient after service
	Down      bool    // the server refuses the attempt with ErrUnavailable
}

// Healthy returns the no-fault decision.
func Healthy() Decision { return Decision{Scale: 1} }

// Injector binds a validated Schedule to a simulation engine: servers ask
// it for the Decision covering an attempt, and Arm schedules the window
// boundaries as engine events so openings are observable in telemetry.
// All methods are driven from engine callbacks or the pipeline's
// submission lock — the injector itself holds no locks, like the rest of
// the deterministic core.
type Injector struct {
	eng      *sim.Engine
	byServer map[string][]Window
	armed    bool

	reg      *telemetry.Registry
	injected map[string]*telemetry.Counter // per server+kind, lazily cached
	windows  map[Kind]*telemetry.Counter
}

// NewInjector validates the schedule and binds it to the engine. Server
// name validation happens later, against the cluster the injector is
// attached to.
func NewInjector(eng *sim.Engine, s Schedule) (*Injector, error) {
	if eng == nil {
		return nil, fmt.Errorf("fault: injector needs an engine")
	}
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	by := make(map[string][]Window)
	ws := append([]Window(nil), s.Windows...)
	sortWindows(ws)
	for _, w := range ws {
		by[w.Server] = append(by[w.Server], w)
	}
	return &Injector{eng: eng, byServer: by}, nil
}

// Engine returns the engine the injector is bound to.
func (in *Injector) Engine() *sim.Engine { return in.eng }

// Empty reports whether the injector carries no windows.
func (in *Injector) Empty() bool { return len(in.byServer) == 0 }

// Servers returns the number of servers with at least one window.
func (in *Injector) Servers() int { return len(in.byServer) }

// At returns the Decision covering server at virtual time t: Down if any
// outage window covers t, Transient if any transient window does, and
// Scale multiplying the factors of every covering slowdown window. At is
// pure — it emits nothing.
func (in *Injector) At(server string, t float64) Decision {
	d := Healthy()
	for _, w := range in.byServer[server] {
		if !w.Covers(t) {
			continue
		}
		switch w.Kind {
		case Outage:
			d.Down = true
		case Transient:
			d.Transient = true
		case Slowdown:
			d.Scale *= w.Factor
		}
	}
	return d
}

// Down reports whether any outage window covers server at time t — the
// availability probe the client-side failover stage uses.
func (in *Injector) Down(server string, t float64) bool {
	for _, w := range in.byServer[server] {
		if w.Kind == Outage && w.Covers(t) {
			return true
		}
	}
	return false
}

// Recovery returns the earliest time ≥ t at which no outage window covers
// the server (math.Inf(1) if it never recovers). Deterministic clients
// use it to bound recovery waits.
func (in *Injector) Recovery(server string, t float64) float64 {
	r := t
	// Windows are sorted by start; a later window can extend the outage
	// the moment an earlier one closes.
	for _, w := range in.byServer[server] {
		if w.Kind == Outage && w.Covers(r) {
			r = w.End
		}
	}
	return r
}

// SetTelemetry installs (or, with nil, removes) the registry the injector
// counts into. Series are registered eagerly, so a fault-armed run
// exports zero-valued fault counters rather than omitting them.
func (in *Injector) SetTelemetry(reg *telemetry.Registry) {
	in.reg = reg
	if reg == nil {
		in.injected, in.windows = nil, nil
		return
	}
	in.injected = make(map[string]*telemetry.Counter)
	in.windows = map[Kind]*telemetry.Counter{
		Slowdown:  reg.Counter(MetricWindows, telemetry.L("kind", Slowdown.String())),
		Transient: reg.Counter(MetricWindows, telemetry.L("kind", Transient.String())),
		Outage:    reg.Counter(MetricWindows, telemetry.L("kind", Outage.String())),
	}
	// Register the per-server injection counters for every scheduled
	// window up front: a window that never catches a request still shows
	// up as an explicit zero.
	for _, server := range in.serverNames() {
		for _, w := range in.byServer[server] {
			in.injectedCounter(server, w.Kind)
		}
	}
}

// serverNames returns the scheduled servers in sorted order, so every
// walk of the window map is deterministic.
func (in *Injector) serverNames() []string {
	out := make([]string, 0, len(in.byServer))
	for n := range in.byServer {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// injectedCounter returns (registering on first use) the per-server
// injection counter. Fault accounting runs only when a scheduled fault
// actually catches a request; the measured XL path runs fault-free.
//
//mhavet:coldpath fault-injection accounting, off on the measured path
func (in *Injector) injectedCounter(server string, k Kind) *telemetry.Counter {
	key := server + "\x00" + k.String()
	c, ok := in.injected[key]
	if !ok {
		c = in.reg.Counter(MetricInjected,
			telemetry.L("kind", k.String()), telemetry.L("server", server))
		in.injected[key] = c
	}
	return c
}

// Observe folds one applied decision into the injection counters. The
// server calls it once per affected attempt; healthy decisions count
// nothing.
func (in *Injector) Observe(server string, d Decision) {
	if in.reg == nil {
		return
	}
	if d.Down {
		in.injectedCounter(server, Outage).Inc()
		return
	}
	if d.Transient {
		in.injectedCounter(server, Transient).Inc()
	}
	if d.Scale != 1 {
		in.injectedCounter(server, Slowdown).Inc()
	}
}

// Arm schedules each window's opening as an engine event so the window
// counters advance at the boundary times. Idempotent; windows opening at
// or before the current virtual time are counted immediately. Unbounded
// windows need no closing event — Covers handles +Inf ends.
func (in *Injector) Arm() {
	if in.armed {
		return
	}
	in.armed = true
	now := in.eng.Now()
	for _, server := range in.serverNames() {
		for _, w := range in.byServer[server] {
			k := w.Kind
			open := func() {
				if in.windows != nil {
					in.windows[k].Inc()
				}
			}
			if w.Start <= now {
				open()
				continue
			}
			in.eng.At(w.Start, open)
		}
	}
}
