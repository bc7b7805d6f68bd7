package cliflags

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkers: default, parse, and the shared help text.
func TestWorkers(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	w := Workers(fs)
	if err := fs.Parse(nil); err != nil || *w != 0 {
		t.Fatalf("default workers %d (%v), want 0", *w, err)
	}
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	w = Workers(fs)
	if err := fs.Parse([]string{"-workers", "7"}); err != nil || *w != 7 {
		t.Fatalf("parsed workers %d (%v), want 7", *w, err)
	}
}

// TestPlanCacheOpen maps every mode through plancache.FromMode.
func TestPlanCacheOpen(t *testing.T) {
	parse := func(args ...string) PlanCacheFlags {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := PlanCache(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}
	if c, err := parse().Open(); err != nil || c == nil {
		t.Fatalf("default (mem): %v %v", c, err)
	}
	if c, err := parse("-plan-cache", "off").Open(); err != nil || c != nil {
		t.Fatalf("off: %v %v", c, err)
	}
	dir := filepath.Join(t.TempDir(), "pc")
	if c, err := parse("-plan-cache", "dir", "-plan-cache-dir", dir).Open(); err != nil || c == nil {
		t.Fatalf("dir: %v %v", c, err)
	}
	if _, err := parse("-plan-cache", "bogus").Open(); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// TestHelpTextUnified pins that both flags carry the cross-command
// guarantee in their usage strings — the drift this package exists to
// prevent.
func TestHelpTextUnified(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Workers(fs)
	PlanCache(fs)
	for _, name := range []string{"workers", "plan-cache"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("flag %q not registered", name)
		}
		if want := "byte-identical"; !strings.Contains(f.Usage, want) {
			t.Errorf("flag %q usage lacks %q: %s", name, want, f.Usage)
		}
	}
}

// TestServers: the paper's 6:2 default, parsing, and -h left to help.
func TestServers(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	h, s := Servers(fs)
	if err := fs.Parse([]string{"-sservers", "4"}); err != nil || *h != 6 || *s != 4 {
		t.Fatalf("parsed %d:%d (%v), want 6:4", *h, *s, err)
	}
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Servers(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
}
