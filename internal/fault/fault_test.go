package fault

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mhafs/internal/sim"
	"mhafs/internal/telemetry"
)

func TestWindowValidate(t *testing.T) {
	cases := []struct {
		name string
		w    Window
		ok   bool
	}{
		{"slowdown", Window{Server: "h0", Kind: Slowdown, Start: 0, End: 1, Factor: 2}, true},
		{"unbounded", Window{Server: "h0", Kind: Slowdown, Start: 0, End: math.Inf(1), Factor: 1}, true},
		{"transient", Window{Server: "s1", Kind: Transient, Start: 0.5, End: 0.6}, true},
		{"outage", Window{Server: "s0", Kind: Outage, Start: 0, End: 0.1}, true},
		{"empty server", Window{Kind: Outage, Start: 0, End: 1}, false},
		{"backward", Window{Server: "h0", Kind: Outage, Start: 1, End: 1}, false},
		{"negative start", Window{Server: "h0", Kind: Outage, Start: -1, End: 1}, false},
		{"factor below one", Window{Server: "h0", Kind: Slowdown, Start: 0, End: 1, Factor: 0.5}, false},
		{"unknown kind", Window{Server: "h0", Kind: Kind(9), Start: 0, End: 1}, false},
	}
	for _, tc := range cases {
		if err := tc.w.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestScheduleValidateNames(t *testing.T) {
	s := Schedule{Windows: []Window{{Server: "s9", Kind: Outage, Start: 0, End: 1}}}
	if err := s.Validate(nil); err != nil {
		t.Fatalf("nil server set must skip name checks: %v", err)
	}
	if err := s.Validate([]string{"h0", "s0"}); err == nil {
		t.Fatal("unknown server name must be rejected")
	}
	if err := s.Validate([]string{"h0", "s9"}); err != nil {
		t.Fatalf("known server rejected: %v", err)
	}
}

// TestScenariosDeterministic pins that scenario construction is a pure
// function of (m, n, seed).
func TestScenariosDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a, err := sc.Build(6, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, err := sc.Build(6, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules:\n%v\n%v", sc, a, b)
		}
		if err := a.Validate([]string{"h0", "h1", "h2", "h3", "h4", "h5", "s0", "s1"}); err != nil {
			t.Errorf("%s: schedule names unknown servers: %v", sc, err)
		}
	}
	fl1, _ := ScenarioFlaky.Build(6, 2, 1)
	fl2, _ := ScenarioFlaky.Build(6, 2, 2)
	if reflect.DeepEqual(fl1, fl2) {
		t.Error("flaky: different seeds must scatter bursts differently")
	}
}

func TestScenarioShapes(t *testing.T) {
	st, _ := ScenarioStraggler.Build(6, 2, 1)
	if len(st.Windows) != 1 || st.Windows[0].Server != "h0" || st.Windows[0].Kind != Slowdown {
		t.Errorf("straggler: unexpected schedule %v", st)
	}
	if !math.IsInf(st.Windows[0].End, 1) {
		t.Error("straggler must last the whole run")
	}
	ot, _ := ScenarioOutage.Build(6, 2, 1)
	if len(ot.Windows) != 1 || ot.Windows[0].Server != "s0" || ot.Windows[0].Kind != Outage {
		t.Errorf("outage: unexpected schedule %v", ot)
	}
	fl, _ := ScenarioFlaky.Build(6, 2, 1)
	if len(fl.Windows) != 8 {
		t.Errorf("flaky: want 8 bursts, got %d", len(fl.Windows))
	}
	for _, w := range fl.Windows {
		if w.Server != "s1" || w.Kind != Transient {
			t.Errorf("flaky: burst on wrong target: %v", w)
		}
	}
	none, _ := ScenarioNone.Build(6, 2, 1)
	if !none.Empty() {
		t.Errorf("none: want empty schedule, got %v", none)
	}
	if _, err := ParseScenario("bogus"); err == nil {
		t.Error("ParseScenario must reject unknown names")
	}
	if sc, err := ParseScenario("outage"); err != nil || sc != ScenarioOutage {
		t.Errorf("ParseScenario(outage) = %v, %v", sc, err)
	}
}

func TestInjectorDecisions(t *testing.T) {
	eng := &sim.Engine{}
	in, err := NewInjector(eng, Schedule{Windows: []Window{
		{Server: "h0", Kind: Slowdown, Start: 1, End: 2, Factor: 4},
		{Server: "h0", Kind: Slowdown, Start: 1.5, End: 3, Factor: 2},
		{Server: "s0", Kind: Outage, Start: 0, End: 1},
		{Server: "s0", Kind: Transient, Start: 0.5, End: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d := in.At("h0", 0.5); d != Healthy() {
		t.Errorf("h0@0.5 = %+v, want healthy", d)
	}
	if d := in.At("h0", 1.25); d.Scale != 4 || d.Down || d.Transient {
		t.Errorf("h0@1.25 = %+v, want scale 4", d)
	}
	// Overlapping slowdowns compound.
	if d := in.At("h0", 1.75); d.Scale != 8 {
		t.Errorf("h0@1.75 = %+v, want scale 8", d)
	}
	// Windows are half-open: the end instant is healthy again.
	if d := in.At("h0", 3); d.Scale != 1 {
		t.Errorf("h0@3 = %+v, want scale 1", d)
	}
	// Outage dominates the overlapping transient window.
	if d := in.At("s0", 0.75); !d.Down {
		t.Errorf("s0@0.75 = %+v, want down", d)
	}
	if d := in.At("s0", 1.5); d.Down || !d.Transient {
		t.Errorf("s0@1.5 = %+v, want transient only", d)
	}
	if !in.Down("s0", 0.2) || in.Down("s0", 1) {
		t.Error("Down must track only outage windows, half-open")
	}
	if got := in.Recovery("s0", 0.2); got != 1 {
		t.Errorf("Recovery(s0, 0.2) = %v, want 1", got)
	}
	if got := in.Recovery("s0", 1.2); got != 1.2 {
		t.Errorf("Recovery after the outage = %v, want 1.2", got)
	}
}

// TestRecoveryChainedOutages pins that back-to-back outage windows are
// treated as one: recovery jumps past both.
func TestRecoveryChainedOutages(t *testing.T) {
	eng := &sim.Engine{}
	in, err := NewInjector(eng, Schedule{Windows: []Window{
		{Server: "s0", Kind: Outage, Start: 0, End: 1},
		{Server: "s0", Kind: Outage, Start: 1, End: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Recovery("s0", 0); got != 2 {
		t.Errorf("Recovery(s0, 0) = %v, want 2", got)
	}
}

func TestInjectorArmAndTelemetry(t *testing.T) {
	eng := &sim.Engine{}
	in, err := NewInjector(eng, Schedule{Windows: []Window{
		{Server: "h0", Kind: Slowdown, Start: 0, End: math.Inf(1), Factor: 2},
		{Server: "s0", Kind: Outage, Start: 0.5, End: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.SetTelemetry(reg)
	in.Arm()
	in.Arm() // idempotent
	eng.Run()
	if got := reg.Counter(MetricWindows, telemetry.L("kind", "slowdown")).Value(); got != 1 {
		t.Errorf("slowdown windows = %v, want 1", got)
	}
	if got := reg.Counter(MetricWindows, telemetry.L("kind", "outage")).Value(); got != 1 {
		t.Errorf("outage windows = %v, want 1", got)
	}
	// Injection counters exist eagerly at zero even before any request.
	if got := reg.Counter(MetricInjected,
		telemetry.L("kind", "outage"), telemetry.L("server", "s0")).Value(); got != 0 {
		t.Errorf("eager injected counter = %v, want 0", got)
	}
	in.Observe("s0", Decision{Down: true})
	in.Observe("h0", Decision{Scale: 2})
	in.Observe("h0", Healthy()) // healthy decisions count nothing
	if got := reg.Counter(MetricInjected,
		telemetry.L("kind", "outage"), telemetry.L("server", "s0")).Value(); got != 1 {
		t.Errorf("outage injections = %v, want 1", got)
	}
	if got := reg.Counter(MetricInjected,
		telemetry.L("kind", "slowdown"), telemetry.L("server", "h0")).Value(); got != 1 {
		t.Errorf("slowdown injections = %v, want 1", got)
	}
}

// TestInjectorExportStable pins byte-stable exports of an armed injector's
// registry across repeated snapshots.
func TestInjectorExportStable(t *testing.T) {
	sched, err := ScenarioOutage.Build(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	in, err := NewInjector(eng, sched)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.SetTelemetry(reg)
	in.Arm()
	eng.Run()
	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("repeated JSON exports differ")
	}
}

func TestRetryable(t *testing.T) {
	if !Retryable(ErrUnavailable) || !Retryable(ErrTransient) {
		t.Error("injected errors must be retryable")
	}
	if Retryable(nil) {
		t.Error("nil is not retryable")
	}
}
