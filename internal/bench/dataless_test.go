package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mhafs/internal/layout"
	"mhafs/internal/telemetry"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// Differential oracle for the dataless contract (DESIGN.md §14): a
// dataless cluster charges exactly the virtual time a byte-accurate
// cluster does, through the same submissions, so every scheme's
// replay.Result and telemetry snapshot must be identical between the
// two. Batching stays off (RunScheme never installs the batcher), so the
// only difference is where bytes go.

// replayBothWays runs every scheme on tr twice — byte-accurate, then
// dataless — and reports the first difference.
func replayBothWays(tr trace.Trace) error {
	for _, scheme := range []layout.Scheme{layout.DEF, layout.AAL, layout.HARL, layout.MHA} {
		var runs [2]SchemeRun
		var snaps [2][]byte
		for i, dataless := range []bool{false, true} {
			cfg := Default()
			cfg.Workers = 1
			cfg.Cluster.Dataless = dataless
			reg := telemetry.NewRegistry()
			cfg.Telemetry = reg
			run, err := cfg.RunScheme(scheme, tr)
			if err != nil {
				return fmt.Errorf("%v dataless=%v: %w", scheme, dataless, err)
			}
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				return err
			}
			runs[i], snaps[i] = run, buf.Bytes()
		}
		if !reflect.DeepEqual(runs[0].Result, runs[1].Result) {
			return fmt.Errorf("%v: results differ:\nbytes    %+v\ndataless %+v", scheme, runs[0].Result, runs[1].Result)
		}
		if line, ok := firstDiffLine(snaps[0], snaps[1]); !ok {
			return fmt.Errorf("%v: telemetry snapshots differ at %q", scheme, line)
		}
	}
	return nil
}

// firstDiffLine compares two snapshots line by line, returning the first
// byte-accurate line that differs (ok=false) or ok=true when equal.
func firstDiffLine(a, b []byte) (string, bool) {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return string(la[i]), false
		}
	}
	if len(lb) > len(la) {
		return string(lb[len(la)]), false
	}
	return "", true
}

// TestDatalessMatchesBytesIORQuick draws seeded IOR traces — one op,
// mixed request sizes and process counts, shuffled phases.
func TestDatalessMatchesBytesIORQuick(t *testing.T) {
	sizes := []int64{4 * units.KB, 16 * units.KB, 64 * units.KB, 100 * units.KB, 256 * units.KB, units.MB}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.IORConfig{
			File: "ior", Op: trace.OpWrite,
			FileSize: 2*units.MB + rng.Int63n(4*units.MB),
			Shuffle:  true, Seed: seed,
		}
		if rng.Intn(2) == 0 {
			cfg.Op = trace.OpRead
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			cfg.Sizes = append(cfg.Sizes, sizes[rng.Intn(len(sizes))])
			cfg.Procs = append(cfg.Procs, 1+rng.Intn(8))
		}
		tr, err := workload.IOR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayBothWays(tr); err != nil {
			t.Errorf("seed %d (%+v): %v", seed, cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestDatalessMatchesBytesCholeskyQuick draws seeded sparse-Cholesky
// traces — reads and writes of every size mixed within one run.
func TestDatalessMatchesBytesCholeskyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.CholeskyConfig{
			FilePrefix: "chol",
			Procs:      1 + rng.Intn(4),
			Panels:     2 + rng.Intn(3),
			Seed:       seed,
		}
		tr, err := workload.Cholesky(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayBothWays(tr); err != nil {
			t.Errorf("seed %d (%+v): %v", seed, cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}
