package pfs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mhafs/internal/device"
	"mhafs/internal/stripe"
	"mhafs/internal/trace"
	"mhafs/internal/units"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.HServers, cfg.SServers = 2, 2
	return cfg
}

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.HServers, c.SServers = 0, 0 },
		func(c *Config) { c.HServers = -1 },
		func(c *Config) { c.MDSLookup = -1 },
		func(c *Config) { c.DefaultStripe = 0 },
		func(c *Config) { c.HDD.ReadPerByte = 0 },
		func(c *Config) { c.SSD.ReadPerByte = 0 },
		func(c *Config) { c.Net.PerByte = 0 },
	}
	for i, m := range muts {
		cfg := DefaultConfig()
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestClusterTopology(t *testing.T) {
	c := newCluster(t, DefaultConfig())
	if len(c.Servers()) != 8 {
		t.Fatalf("servers = %d", len(c.Servers()))
	}
	if got := c.DefaultLayout(); got != stripe.Uniform(6, 2, 64*units.KB) {
		t.Errorf("DefaultLayout = %v", got)
	}
	h0 := c.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	s1 := c.ServerFor(stripe.ServerRef{Class: stripe.ClassS, Index: 1})
	if h0.Name != "h0" || s1.Name != "s1" {
		t.Errorf("ServerFor wrong: %s, %s", h0.Name, s1.Name)
	}
}

func TestCreateLookupRemove(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, err := c.CreateDefault("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "data.bin" || f.Size != 0 {
		t.Errorf("file = %+v", f)
	}
	if _, err := c.CreateDefault("data.bin"); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := c.Create("", c.DefaultLayout()); err == nil {
		t.Error("empty name accepted")
	}
	got, ok := c.Lookup("data.bin")
	if !ok || got != f {
		t.Error("Lookup failed")
	}
	if len(c.Files()) != 1 {
		t.Errorf("Files = %v", c.Files())
	}
	c.Remove("data.bin")
	if _, ok := c.Lookup("data.bin"); ok {
		t.Error("Remove did not delete")
	}
}

func TestCreateRejectsOversizedLayout(t *testing.T) {
	c := newCluster(t, smallConfig()) // 2H + 2S
	bad := stripe.Uniform(3, 2, 64*units.KB)
	if _, err := c.Create("f", bad); err == nil {
		t.Error("layout exceeding cluster accepted")
	}
	if _, err := c.Create("f", stripe.Layout{}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	data := make([]byte, 300*units.KB) // spans >1 round of 256KB
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	if _, err := c.WriteSync(f, 0, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := c.ReadSync(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("round trip corrupted data")
	}
	if f.Size != int64(len(data)) {
		t.Errorf("Size = %d", f.Size)
	}
}

func TestWriteReadAtOffset(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	data := []byte("offset payload")
	off := int64(200*units.KB + 17)
	if _, err := c.WriteSync(f, off, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if _, err := c.ReadSync(f, off, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("got %q", buf)
	}
	// Sparse hole reads as zeros.
	hole := make([]byte, 10)
	c.ReadSync(f, 0, hole)
	for _, b := range hole {
		if b != 0 {
			t.Error("hole not zero")
		}
	}
}

func TestVariedLayoutRoundTrip(t *testing.T) {
	c := newCluster(t, smallConfig())
	l := stripe.Layout{M: 2, N: 2, H: 32 * units.KB, S: 96 * units.KB}
	f, err := c.Create("v", l)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600*units.KB)
	rand.New(rand.NewSource(9)).Read(data)
	c.WriteSync(f, 0, data)
	buf := make([]byte, len(data))
	c.ReadSync(f, 0, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("varied-layout round trip corrupted data")
	}
}

func TestSSDOnlyLayoutRoundTrip(t *testing.T) {
	c := newCluster(t, smallConfig())
	l := stripe.Layout{M: 2, N: 2, H: 0, S: 64 * units.KB}
	f, err := c.Create("s", l)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200*units.KB)
	rand.New(rand.NewSource(3)).Read(data)
	c.WriteSync(f, 0, data)
	buf := make([]byte, len(data))
	c.ReadSync(f, 0, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("SSD-only round trip corrupted data")
	}
	// HServers must have stored nothing.
	for _, st := range c.ServerStats()[:2] {
		if st.WriteBytes != 0 {
			t.Errorf("HServer %s stored %d bytes under h=0 layout", st.Name, st.WriteBytes)
		}
	}
}

func TestZeroLengthOps(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	var wrote, read bool
	c.Write(f, 0, nil, func(float64, error) { wrote = true })
	c.Read(f, 0, nil, func(float64, error) { read = true })
	c.Eng.Run()
	if !wrote || !read {
		t.Error("zero-length ops should still complete")
	}
}

func TestOpErrors(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	if err := c.Write(nil, 0, []byte{1}, nil); err == nil {
		t.Error("nil file write accepted")
	}
	if err := c.Read(nil, 0, make([]byte, 1), nil); err == nil {
		t.Error("nil file read accepted")
	}
	if err := c.Write(f, -1, []byte{1}, nil); err == nil {
		t.Error("negative offset write accepted")
	}
	if err := c.Read(f, -1, make([]byte, 1), nil); err == nil {
		t.Error("negative offset read accepted")
	}
}

func TestOpenHandle(t *testing.T) {
	c := newCluster(t, smallConfig())
	c.CreateDefault("f")
	var end float64
	if err := c.OpenHandle("f", func(_ *File, e float64) { end = e }); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if math.Abs(end-c.Config().MDSLookup) > 1e-12 {
		t.Errorf("open completed at %v, want %v", end, c.Config().MDSLookup)
	}
	if err := c.OpenHandle("missing", nil); err == nil {
		t.Error("open of missing file accepted")
	}
}

// The paper's Fig. 1 argument: under DEF a 256KB request is bounded by the
// HServers; the SServers finish early and contribute nothing.
func TestRequestTimeBoundedByHServers(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	data := make([]byte, 256*units.KB)
	end, err := c.WriteSync(f, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	h := c.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	want := h.ServiceTime(trace.OpWrite, 64*units.KB)
	if math.Abs(end-want) > 1e-12 {
		t.Errorf("write completed at %v, want HServer-bound %v", end, want)
	}
}

// Writes from concurrent clients to the same server must serialize: the
// makespan of two whole-round writes is twice one write.
func TestServerContentionSerializes(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("f")
	round := f.Layout.RoundLength()
	data := make([]byte, round)
	var ends []float64
	c.Write(f, 0, data, func(e float64, _ error) { ends = append(ends, e) })
	c.Write(f, round, data, func(e float64, _ error) { ends = append(ends, e) })
	c.Eng.Run()
	h := c.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	one := h.ServiceTime(trace.OpWrite, 64*units.KB)
	if len(ends) != 2 {
		t.Fatal("both writes must complete")
	}
	// The second round's sub-request queues behind the first and pays one
	// step of HDD seek interference.
	want := 2*one + h.Dev.SeekInterference
	if math.Abs(ends[1]-want) > 1e-9 {
		t.Errorf("second write ended at %v, want %v", ends[1], want)
	}
}

func TestServerStatsOrder(t *testing.T) {
	c := newCluster(t, DefaultConfig())
	stats := c.ServerStats()
	if len(stats) != 8 {
		t.Fatalf("stats len = %d", len(stats))
	}
	if stats[0].Name != "h0" || stats[5].Name != "h5" || stats[6].Name != "s0" || stats[7].Name != "s1" {
		t.Errorf("flat order wrong: %v...", stats[0].Name)
	}
}

// Property: arbitrary write/read sequences round-trip under arbitrary
// layouts.
func TestReadYourWritesQuick(t *testing.T) {
	cfg := smallConfig()
	f := func(seed int64, h8, s8 uint8, nOps uint8) bool {
		h := (int64(h8%8) + 1) * 4096
		s := (int64(s8%8) + 2) * 4096
		c, err := New(cfg)
		if err != nil {
			return false
		}
		file, err := c.Create("f", stripe.Layout{M: 2, N: 2, H: h, S: s})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		shadow := make([]byte, 512*1024)
		for i := 0; i < int(nOps%12)+1; i++ {
			off := rng.Int63n(int64(len(shadow)) - 1)
			n := rng.Int63n(int64(len(shadow))-off-1) + 1
			data := make([]byte, n)
			rng.Read(data)
			copy(shadow[off:], data)
			if _, err := c.WriteSync(file, off, data); err != nil {
				return false
			}
		}
		buf := make([]byte, len(shadow))
		if _, err := c.ReadSync(file, 0, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestServerForFileRotation(t *testing.T) {
	c := newCluster(t, DefaultConfig()) // 6H + 2S
	fa, _ := c.CreateDefault("alpha")
	fb, _ := c.CreateDefault("beta")
	ref := stripe.ServerRef{Class: stripe.ClassH, Index: 0}
	// Rotation must be deterministic per name.
	if c.ServerForFile(fa, ref) != c.ServerForFile(fa, ref) {
		t.Error("rotation not deterministic")
	}
	// Rotation stays within the class.
	for i := 0; i < 6; i++ {
		srv := c.ServerForFile(fa, stripe.ServerRef{Class: stripe.ClassH, Index: i})
		if srv.Name[0] != 'h' {
			t.Errorf("HServer ref resolved to %s", srv.Name)
		}
	}
	for j := 0; j < 2; j++ {
		srv := c.ServerForFile(fb, stripe.ServerRef{Class: stripe.ClassS, Index: j})
		if srv.Name[0] != 's' {
			t.Errorf("SServer ref resolved to %s", srv.Name)
		}
	}
	// Distinct refs of one file stay distinct servers (bijective within
	// the class).
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		name := c.ServerForFile(fa, stripe.ServerRef{Class: stripe.ClassH, Index: i}).Name
		if seen[name] {
			t.Fatalf("rotation collides at %s", name)
		}
		seen[name] = true
	}
}

// Rotation must not break data integrity: two files with identical
// layouts and overlapping local offsets stay isolated.
func TestRotationIsolation(t *testing.T) {
	c := newCluster(t, DefaultConfig())
	fa, _ := c.CreateDefault("alpha")
	fb, _ := c.CreateDefault("beta")
	da := bytes.Repeat([]byte{0xAA}, 256*1024)
	db := bytes.Repeat([]byte{0xBB}, 256*1024)
	c.WriteSync(fa, 0, da)
	c.WriteSync(fb, 0, db)
	ga, gb := make([]byte, len(da)), make([]byte, len(db))
	c.ReadSync(fa, 0, ga)
	c.ReadSync(fb, 0, gb)
	if !bytes.Equal(ga, da) || !bytes.Equal(gb, db) {
		t.Fatal("rotated files interfered")
	}
}

func TestRemoveReclaimsObjects(t *testing.T) {
	c := newCluster(t, smallConfig())
	f, _ := c.CreateDefault("victim")
	c.WriteSync(f, 0, make([]byte, 256*1024))
	var stored int64
	for _, s := range c.Servers() {
		stored += s.Object("victim").StoredBytes()
	}
	if stored == 0 {
		t.Fatal("nothing stored before Remove")
	}
	c.Remove("victim")
	for _, s := range c.Servers() {
		for _, obj := range s.Objects() {
			if obj == "victim" {
				t.Fatalf("server %s still holds the removed object", s.Name)
			}
		}
	}
}

func TestDeviceOverrides(t *testing.T) {
	cfg := smallConfig()
	slow := cfg.HDD
	slow.ReadStartup *= 10
	cfg.HDDOverrides = map[int]device.Model{1: slow}
	c := newCluster(t, cfg)
	h0 := c.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 0})
	h1 := c.ServerFor(stripe.ServerRef{Class: stripe.ClassH, Index: 1})
	if !(h1.ServiceTime(trace.OpRead, 4096) > h0.ServiceTime(trace.OpRead, 4096)) {
		t.Error("override not applied")
	}

	bad := smallConfig()
	bad.HDDOverrides = map[int]device.Model{9: slow}
	if _, err := New(bad); err == nil {
		t.Error("out-of-range override accepted")
	}
	bad = smallConfig()
	bad.SSDOverrides = map[int]device.Model{0: {}}
	if _, err := New(bad); err == nil {
		t.Error("invalid override model accepted")
	}
}
