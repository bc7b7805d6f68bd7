package pfs

import (
	"errors"
	"strings"
	"testing"

	"mhafs/internal/device"
	"mhafs/internal/fault"
	"mhafs/internal/stripe"
)

func TestCreateWithRotation(t *testing.T) {
	c := newCluster(t, smallConfig())
	l := stripe.Uniform(2, 2, 4096)
	f, err := c.CreateWithRotation("fb", l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rotation != 1 {
		t.Fatalf("rotation = %d, want the explicit 1", f.Rotation)
	}
	if got, _ := c.Lookup("fb"); got != f {
		t.Error("created file not registered")
	}
	if _, err := c.CreateWithRotation("neg", l, -1); err == nil {
		t.Error("negative rotation accepted")
	}
	if _, err := c.CreateWithRotation("fb", l, 0); err == nil {
		t.Error("duplicate name accepted")
	}
}

// TestPhysicalIndex pins the rotation arithmetic: the physical index is
// exactly where ServerForFile lands, for both classes.
func TestPhysicalIndex(t *testing.T) {
	cfg := DefaultConfig() // 6 HServers, 2 SServers
	c := newCluster(t, cfg)
	f, err := c.CreateWithRotation("f", c.DefaultLayout(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range f.Layout.Servers() {
		idx := c.PhysicalIndex(f, ref)
		srv := c.ServerForFile(f, ref)
		want := c.ServerFor(stripe.ServerRef{Class: ref.Class, Index: idx})
		if srv != want {
			t.Errorf("%v: PhysicalIndex %d names %s, ServerForFile gives %s",
				ref, idx, want.Name, srv.Name)
		}
	}
	// Spot-check the modulus: H index 3 with rotation 5 over 6 HServers.
	if got := c.PhysicalIndex(f, stripe.ServerRef{Class: stripe.ClassH, Index: 3}); got != 2 {
		t.Errorf("H3+5 mod 6 = %d, want 2", got)
	}
}

// TestOverrideValidationDeterministic: with several out-of-range override
// indices, Validate reports the lowest one — map iteration order must not
// leak into the error.
func TestOverrideValidationDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		cfg := smallConfig()
		cfg.HDDOverrides = map[int]device.Model{
			7: cfg.HDD, 3: cfg.HDD, 9: cfg.HDD, -1: cfg.HDD,
		}
		err := cfg.Validate()
		if err == nil {
			t.Fatal("out-of-range override indices accepted")
		}
		if !strings.Contains(err.Error(), "index -1") {
			t.Fatalf("run %d: error %q does not name the lowest bad index -1", i, err)
		}
		if !strings.Contains(err.Error(), "[0,2)") {
			t.Fatalf("error %q does not state the valid range", err)
		}
	}
	cfg := smallConfig()
	cfg.SSDOverrides = map[int]device.Model{2: cfg.SSD}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "SSD override index 2") {
		t.Errorf("SSD override out of range: err = %v", err)
	}
	cfg = smallConfig()
	cfg.HDDOverrides = map[int]device.Model{0: cfg.HDD, 1: cfg.SSD}
	if err := cfg.Validate(); err != nil {
		t.Errorf("in-range overrides rejected: %v", err)
	}
}

func TestClusterSetFaults(t *testing.T) {
	c := newCluster(t, smallConfig())
	in, err := fault.NewInjector(c.Eng, fault.Schedule{Windows: []fault.Window{
		{Server: "s0", Kind: fault.Outage, Start: 0, End: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaults(in)
	if c.Faults() != in {
		t.Error("injector not stored on the cluster")
	}
	for _, s := range c.Servers() {
		if s.Faults() != in {
			t.Errorf("server %s missing the injector", s.Name)
		}
	}
	c.SetFaults(nil)
	if c.Faults() != nil {
		t.Error("detach left the cluster injector set")
	}
	for _, s := range c.Servers() {
		if s.Faults() != nil {
			t.Errorf("server %s still has the injector after detach", s.Name)
		}
	}
}

// TestWriteSyncReportsOutage: the raw Write/Read path has no retry or
// failover, so an outage it runs into surfaces as the typed error —
// returned by WriteSync/ReadSync — instead of a panic. The sub-requests
// the outage spares still complete, and the slowest one stamps the end.
func TestWriteSyncReportsOutage(t *testing.T) {
	for _, dataless := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Dataless = dataless
		c := newCluster(t, cfg)
		f, err := c.CreateDefault("f")
		if err != nil {
			t.Fatal(err)
		}
		down := c.ServerForFile(f, f.Layout.Servers()[0]).Name
		in, err := fault.NewInjector(c.Eng, fault.Schedule{Windows: []fault.Window{
			{Server: down, Kind: fault.Outage, Start: 0, End: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		c.SetFaults(in)
		data := make([]byte, f.Layout.RoundLength())
		end, err := c.WriteSync(f, 0, data)
		if !errors.Is(err, fault.ErrUnavailable) {
			t.Fatalf("dataless=%v: WriteSync err = %v, want ErrUnavailable", dataless, err)
		}
		if end <= 0 {
			t.Errorf("dataless=%v: end = %v, want the surviving sub-requests' completion", dataless, end)
		}
		if _, err := c.ReadSync(f, 0, data); !errors.Is(err, fault.ErrUnavailable) {
			t.Errorf("dataless=%v: ReadSync err = %v, want ErrUnavailable", dataless, err)
		}
	}
}
