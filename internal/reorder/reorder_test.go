package reorder

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"mhafs/internal/layout"
	"mhafs/internal/pfs"
	"mhafs/internal/region"
	"mhafs/internal/stripe"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

func testCluster(t *testing.T) *pfs.Cluster {
	t.Helper()
	cfg := pfs.DefaultConfig()
	cfg.HServers, cfg.SServers = 2, 2
	c, err := pfs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEnv() layout.Env {
	e := layout.DefaultEnv()
	e.M, e.N = 2, 2
	return e
}

// mixedTrace: 16KB×8 and 256KB×2 interleaved over one file.
func mixedTrace(file string) trace.Trace {
	var tr trace.Trace
	off := int64(0)
	ts := 0.0
	for loop := 0; loop < 4; loop++ {
		for r := 0; r < 8; r++ {
			tr = append(tr, trace.Record{Rank: r, File: file, Op: trace.OpRead,
				Offset: off, Size: 16 * units.KB, Time: ts})
			off += 16 * units.KB
		}
		ts++
		for r := 0; r < 2; r++ {
			tr = append(tr, trace.Record{Rank: r, File: file, Op: trace.OpRead,
				Offset: off, Size: 256 * units.KB, Time: ts})
			off += 256 * units.KB
		}
		ts++
	}
	return tr
}

func TestRawReadWrite(t *testing.T) {
	c := testCluster(t)
	f, _ := c.Create("f", stripe.Layout{M: 2, N: 2, H: 16 * units.KB, S: 48 * units.KB})
	data := make([]byte, 500*units.KB)
	rand.New(rand.NewSource(1)).Read(data)
	RawWrite(c, f, 1000, data)
	if c.Eng.Now() != 0 || c.Eng.Pending() != 0 {
		t.Error("raw write consumed virtual time")
	}
	got := make([]byte, len(data))
	RawRead(c, f, 1000, got)
	if !bytes.Equal(got, data) {
		t.Fatal("raw round trip corrupted data")
	}
	if f.Size != 1000+int64(len(data)) {
		t.Errorf("Size = %d", f.Size)
	}
}

func TestRawCopy(t *testing.T) {
	c := testCluster(t)
	src, _ := c.CreateDefault("src")
	dst, _ := c.Create("dst", stripe.Layout{M: 2, N: 2, H: 0, S: 32 * units.KB})
	data := make([]byte, 5*units.MB+123) // exercises chunked copy
	rand.New(rand.NewSource(2)).Read(data)
	RawWrite(c, src, 0, data)
	if err := RawCopy(c, src, 0, dst, 4096, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	RawRead(c, dst, 4096, got)
	if !bytes.Equal(got, data) {
		t.Fatal("RawCopy corrupted data")
	}
	if err := RawCopy(c, src, -1, dst, 0, 10); err == nil {
		t.Error("negative src offset accepted")
	}
}

func planMHA(t *testing.T, tr trace.Trace) layout.Plan {
	t.Helper()
	pl, _ := layout.NewPlanner(layout.MHA)
	p, err := pl.Plan(tr, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyCreatesRegionsAndTables(t *testing.T) {
	c := testCluster(t)
	tr := mixedTrace("app.dat")
	plan := planMHA(t, tr)
	p, err := Apply(c, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.RST.Len() != len(plan.Regions) {
		t.Errorf("RST has %d entries, want %d", p.RST.Len(), len(plan.Regions))
	}
	for _, r := range plan.Regions {
		f, ok := c.Lookup(r.File)
		if !ok {
			t.Fatalf("region file %s not created", r.File)
		}
		if f.Layout != r.Layout {
			t.Errorf("region %s layout %v, want %v", r.File, f.Layout, r.Layout)
		}
		got, ok := p.RST.Get(r.File)
		if !ok || got != r.Layout {
			t.Errorf("RST entry for %s = %v,%v", r.File, got, ok)
		}
	}
	if p.DRT.Len() != len(plan.Mappings) {
		t.Errorf("DRT has %d mappings, want %d", p.DRT.Len(), len(plan.Mappings))
	}
}

func TestApplyIdempotentOnExistingRegions(t *testing.T) {
	c := testCluster(t)
	plan := planMHA(t, mixedTrace("app.dat"))
	p1, err := Apply(c, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1.Close()
	// Applying the same regions again (fresh tables) must succeed.
	p2, err := Apply(c, plan, Options{})
	if err != nil {
		t.Fatalf("re-apply failed: %v", err)
	}
	p2.Close()
}

func TestApplyRejectsConflictingLayout(t *testing.T) {
	c := testCluster(t)
	plan := planMHA(t, mixedTrace("app.dat"))
	// Pre-create one region with a different layout.
	c.Create(plan.Regions[0].File, stripe.Uniform(1, 1, 4*units.KB))
	if _, err := Apply(c, plan, Options{}); err == nil {
		t.Error("conflicting region layout accepted")
	}
}

func TestApplyRejectsInvalidPlan(t *testing.T) {
	c := testCluster(t)
	bad := layout.Plan{Regions: []layout.RegionPlan{{File: ""}}}
	if _, err := Apply(c, bad, Options{}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestApplyMigratesData(t *testing.T) {
	c := testCluster(t)
	// Populate the original file with known data.
	orig, _ := c.CreateDefault("app.dat")
	tr := mixedTrace("app.dat")
	span := int64(0)
	for _, r := range tr {
		if r.End() > span {
			span = r.End()
		}
	}
	data := make([]byte, span)
	rand.New(rand.NewSource(3)).Read(data)
	RawWrite(c, orig, 0, data)

	plan := planMHA(t, tr)
	p, err := Apply(c, plan, Options{Migrate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Every mapping's bytes must now be present in its region.
	for _, m := range plan.Mappings {
		rf, ok := c.Lookup(m.RFile)
		if !ok {
			t.Fatalf("region %s missing", m.RFile)
		}
		got := make([]byte, m.Length)
		RawRead(c, rf, m.ROffset, got)
		want := data[m.OOffset:m.OEnd()]
		if !bytes.Equal(got, want) {
			t.Fatalf("migrated bytes differ for mapping %+v", m)
		}
	}
}

func TestApplyPersistsTables(t *testing.T) {
	dir := t.TempDir()
	c := testCluster(t)
	plan := planMHA(t, mixedTrace("app.dat"))
	opts := Options{
		DRTPath: filepath.Join(dir, "drt.db"),
		RSTPath: filepath.Join(dir, "rst.db"),
	}
	p, err := Apply(c, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantDRT, wantRST := p.DRT.Len(), p.RST.Len()
	p.Close()

	drt, err := region.OpenDRT(opts.DRTPath)
	if err != nil {
		t.Fatal(err)
	}
	defer drt.Close()
	if drt.Len() != wantDRT {
		t.Errorf("reloaded DRT has %d entries, want %d", drt.Len(), wantDRT)
	}
	rst, err := region.OpenRST(opts.RSTPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rst.Len() != wantRST {
		t.Errorf("reloaded RST has %d entries, want %d", rst.Len(), wantRST)
	}
}

func TestRedirector(t *testing.T) {
	drt, _ := region.OpenDRT("")
	defer drt.Close()
	drt.Add(region.Mapping{OFile: "f", OOffset: 0, RFile: "r0", ROffset: 100, Length: 50})
	r := NewRedirector(drt, 5e-6)
	ts := r.Resolve("f", 10, 20)
	if len(ts) != 1 || ts[0].File != "r0" || ts[0].Offset != 110 || ts[0].Size != 20 {
		t.Errorf("Resolve = %+v", ts)
	}
	if r.Lookups() != 1 {
		t.Errorf("Lookups = %d", r.Lookups())
	}
}

func TestRedirectorPanics(t *testing.T) {
	drt, _ := region.OpenDRT("")
	defer drt.Close()
	for name, fn := range map[string]func(){
		"nil drt":         func() { NewRedirector(nil, 0) },
		"negative lookup": func() { NewRedirector(drt, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSchemeRedirector pins the paper's per-scheme redirection rule: DEF
// runs unredirected, MHA pays the DRT lookup, AAL and HARL restripe in
// place and pay nothing.
func TestSchemeRedirector(t *testing.T) {
	drt, _ := region.OpenDRT("")
	defer drt.Close()
	const lookup = 3e-6
	for _, tc := range []struct {
		scheme layout.Scheme
		nilRed bool
		charge float64
	}{
		{layout.DEF, true, 0},
		{layout.AAL, false, 0},
		{layout.HARL, false, 0},
		{layout.MHA, false, lookup},
	} {
		r := SchemeRedirector(tc.scheme, drt, lookup)
		if (r == nil) != tc.nilRed {
			t.Errorf("%v: redirector %v, want nil=%v", tc.scheme, r, tc.nilRed)
			continue
		}
		if r != nil && r.LookupTime != tc.charge {
			t.Errorf("%v: lookup charge %v, want %v", tc.scheme, r.LookupTime, tc.charge)
		}
	}
}
