package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mhafs/internal/layout"
	"mhafs/internal/metrics"
	"mhafs/internal/replay"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// testConfig runs the suite at a higher scale divisor so tests stay fast;
// the shapes under test are scale-invariant.
func testConfig() Config {
	c := Default()
	c.Scale = 512
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	c := Default()
	c.Scale = 0
	if c.Validate() == nil {
		t.Error("zero scale accepted")
	}
	c = Default()
	c.RedirectLookup = -1
	if c.Validate() == nil {
		t.Error("negative lookup accepted")
	}
}

func TestRunSchemeBasics(t *testing.T) {
	c := testConfig()
	tr, err := workload.IOR(workload.IORConfig{
		File: "f", Op: trace.OpWrite,
		Sizes: []int64{64 * units.KB}, Procs: []int{8},
		FileSize: 8 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.RunScheme(layout.DEF, tr)
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Ops != len(tr) {
		t.Errorf("ops = %d, want %d", run.Result.Ops, len(tr))
	}
	if run.Result.Bandwidth() <= 0 {
		t.Error("no bandwidth measured")
	}
}

func TestFig3(t *testing.T) {
	tb := Fig3(2)
	if tb.Rows() != 6 {
		t.Errorf("Fig3 rows = %d", tb.Rows())
	}
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "131072") {
		t.Error("Fig3 missing the 128KB request")
	}
}

// Fig. 7 shapes: MHA ≥ HARL ≥ DEF on every mixed-size row; MHA ≈ HARL on
// the uniform 16KB row (MHA degrades to HARL); substantial MHA-over-DEF
// improvement.
func TestFig7Shapes(t *testing.T) {
	rows, tb, err := testConfig().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || tb.Rows() != 8 {
		t.Fatalf("rows = %d / table %d", len(rows), tb.Rows())
	}
	for _, row := range rows {
		for _, dir := range []map[layout.Scheme]float64{row.Read, row.Write} {
			if !(dir[layout.MHA] >= 0.99*dir[layout.HARL]) {
				t.Errorf("%s: MHA %.1f below HARL %.1f", row.Label, dir[layout.MHA], dir[layout.HARL])
			}
			if !(dir[layout.HARL] > dir[layout.DEF]) {
				t.Errorf("%s: HARL %.1f not above DEF %.1f", row.Label, dir[layout.HARL], dir[layout.DEF])
			}
			if !(dir[layout.MHA] > 1.3*dir[layout.DEF]) {
				t.Errorf("%s: MHA %.1f lacks a substantial win over DEF %.1f",
					row.Label, dir[layout.MHA], dir[layout.DEF])
			}
		}
	}
	// Uniform 16KB: MHA within 10% of HARL (degenerates to it).
	u := rows[0]
	if r := u.Read[layout.MHA] / u.Read[layout.HARL]; r < 0.90 || r > 1.15 {
		t.Errorf("uniform 16KB: MHA/HARL read ratio %.2f, want ≈1", r)
	}
}

// Fig. 8 shapes: DEF and AAL skew load across server classes; HARL and
// MHA are nearly even.
func TestFig8Shapes(t *testing.T) {
	rows, tb, err := testConfig().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 || tb.Rows() != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	imbalance := func(s layout.Scheme) float64 {
		var vals []float64
		for _, r := range rows {
			vals = append(vals, r.Time[s])
		}
		return metrics.LoadImbalance(vals)
	}
	def, harl, mha := imbalance(layout.DEF), imbalance(layout.HARL), imbalance(layout.MHA)
	if !(def > 1.5*harl) {
		t.Errorf("DEF imbalance %.2f should far exceed HARL %.2f", def, harl)
	}
	if !(def > 1.5*mha) {
		t.Errorf("DEF imbalance %.2f should far exceed MHA %.2f", def, mha)
	}
	if harl > 3.0 {
		t.Errorf("HARL imbalance %.2f should be moderate", harl)
	}
	if mha > 3.0 {
		t.Errorf("MHA imbalance %.2f should be moderate", mha)
	}
	// Every server must participate under MHA (the paper's Fig. 8 shows
	// non-zero, near-even bars on all eight servers).
	for _, r := range rows {
		if r.Time[layout.MHA] <= 0 {
			t.Errorf("server %s idle under MHA", r.Server)
		}
	}
}

// Fig. 9 shapes: MHA ≈ HARL on the uniform-process row, MHA wins on mixed
// rows, and bandwidth declines as process counts grow.
func TestFig9Shapes(t *testing.T) {
	rows, _, err := testConfig().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		if i == 0 {
			if r := row.Read[layout.MHA] / row.Read[layout.HARL]; r < 0.9 || r > 1.15 {
				t.Errorf("uniform procs: MHA/HARL %.2f", r)
			}
			continue
		}
		if !(row.Read[layout.MHA] >= 0.99*row.Read[layout.HARL] &&
			row.Read[layout.MHA] > row.Read[layout.DEF]) {
			t.Errorf("%s: MHA read %.1f not leading (HARL %.1f, DEF %.1f)",
				row.Label, row.Read[layout.MHA], row.Read[layout.HARL], row.Read[layout.DEF])
		}
	}
	// Contention: the 32+128 mix must be slower than the 8-proc row for
	// the baseline.
	if !(rows[3].Read[layout.DEF] < rows[0].Read[layout.DEF]) {
		t.Errorf("DEF bandwidth should drop with process count: %.1f vs %.1f",
			rows[3].Read[layout.DEF], rows[0].Read[layout.DEF])
	}
}

// Fig. 10 shapes: MHA wins at every ratio, and its margin over HARL grows
// as SServers are added.
func TestFig10Shapes(t *testing.T) {
	rows, _, err := testConfig().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if !(row.Read[layout.MHA] >= 0.99*row.Read[layout.HARL] &&
			row.Write[layout.MHA] >= 0.99*row.Write[layout.HARL]) {
			t.Errorf("%s: MHA not leading HARL", row.Label)
		}
		if !(row.Read[layout.MHA] > row.Read[layout.DEF]) {
			t.Errorf("%s: MHA not above DEF", row.Label)
		}
	}
	firstGain := rows[0].Read[layout.MHA] / rows[0].Read[layout.DEF]
	lastGain := rows[3].Read[layout.MHA] / rows[3].Read[layout.DEF]
	if !(lastGain > firstGain) {
		t.Errorf("MHA/DEF gain should grow with SServers: %.2f → %.2f", firstGain, lastGain)
	}
}

// Fig. 11 shapes: MHA beats the other three at every process count.
func TestFig11Shapes(t *testing.T) {
	rows, _, err := testConfig().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, s := range []layout.Scheme{layout.DEF, layout.AAL} {
			if !(row.Write[layout.MHA] > row.Write[s]) {
				t.Errorf("%s: MHA write %.1f not above %v %.1f",
					row.Label, row.Write[layout.MHA], s, row.Write[s])
			}
		}
		if !(row.Write[layout.MHA] >= 0.99*row.Write[layout.HARL]) {
			t.Errorf("%s: MHA below HARL", row.Label)
		}
	}
}

// Fig. 12 shapes: MHA leads for BTIO and LANL.
func TestFig12Shapes(t *testing.T) {
	c := testConfig()
	rowsA, _, err := c.Fig12a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rowsA {
		if !(row.Write[layout.MHA] > row.Write[layout.DEF]) {
			t.Errorf("BTIO %s: MHA %.1f not above DEF %.1f",
				row.Label, row.Write[layout.MHA], row.Write[layout.DEF])
		}
	}
	rowsB, _, err := c.Fig12b()
	if err != nil {
		t.Fatal(err)
	}
	row := rowsB[0]
	for _, s := range []layout.Scheme{layout.DEF, layout.AAL, layout.HARL} {
		if !(row.Write[layout.MHA] >= 0.99*row.Write[s]) {
			t.Errorf("LANL: MHA write %.1f not leading %v %.1f",
				row.Write[layout.MHA], s, row.Write[s])
		}
	}
}

// Fig. 13 shapes: MHA leads for LU and Cholesky replays.
func TestFig13Shapes(t *testing.T) {
	c := testConfig()
	for name, fn := range map[string]func() ([]BandwidthRow, *metrics.Table, error){
		"lu":       c.Fig13a,
		"cholesky": c.Fig13b,
	} {
		rows, _, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		row := rows[0]
		for _, s := range []layout.Scheme{layout.DEF, layout.AAL, layout.HARL} {
			if !(row.Write[layout.MHA] >= 0.99*row.Write[s]) {
				t.Errorf("%s: MHA write %.1f not leading %v %.1f",
					name, row.Write[layout.MHA], s, row.Write[s])
			}
		}
	}
}

// Fig. 14 shapes: redirection costs a few percent at most and never helps.
func TestFig14Shapes(t *testing.T) {
	rows, tb, err := testConfig().Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || tb.Rows() != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The lookup delay can slightly de-synchronize ranks and reduce
		// queue contention, so a marginally negative "overhead" is
		// possible; anything beyond ±1% / +10% would be a real problem.
		if r.OverheadPct < -1 {
			t.Errorf("procs %d: overhead %.2f%% suspiciously negative", r.Procs, r.OverheadPct)
		}
		if r.OverheadPct > 10 {
			t.Errorf("procs %d: overhead %.2f%% too large to be acceptable", r.Procs, r.OverheadPct)
		}
		if r.RedirectBW > r.BaseBW*1.01 {
			t.Errorf("procs %d: redirection increased bandwidth by >1%%", r.Procs)
		}
	}
}

// TestFig14MatchesGolden pins Fig. 14, which replays empty DEF and MHA
// plans through the harness's run assembly, to the committed figure
// golden byte for byte.
func TestFig14MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "figures_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const title = "Fig. 14:"
	i := bytes.Index(golden, []byte(title))
	if i < 0 {
		t.Fatalf("no %q block in figures_golden.txt", title)
	}
	want := golden[i:]
	if j := bytes.Index(want, []byte("\n\n")); j >= 0 {
		want = want[:j+1]
	}
	c := Default()
	c.Workers = 1
	_, tb, err := c.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tb.Fprint(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Fig. 14 differs from figures_golden.txt:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

func TestMetaOverhead(t *testing.T) {
	rows, tb := MetaOverhead([]int64{4 * units.KB, 64 * units.KB})
	if len(rows) != 2 || tb.Rows() != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's worst case: 4KB requests → ~0.6% overhead.
	if math.Abs(rows[0].OverheadPct-0.586) > 0.01 {
		t.Errorf("4KB overhead = %.3f%%, want ≈0.586%%", rows[0].OverheadPct)
	}
	if rows[1].OverheadPct >= rows[0].OverheadPct {
		t.Error("larger requests must have lower metadata overhead")
	}
}

// Determinism: the whole Fig. 7 experiment reproduces bit-identical
// bandwidths across runs.
func TestFigDeterminism(t *testing.T) {
	c := testConfig()
	a, _, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for _, s := range layout.AllSchemes() {
			if a[i].Read[s] != b[i].Read[s] || a[i].Write[s] != b[i].Write[s] {
				t.Fatalf("row %d scheme %v not deterministic", i, s)
			}
		}
	}
}

// Cross-scale sanity: the headline ordering (MHA ≥ HARL > DEF) must hold
// at a different workload scale than the one the detailed shape tests
// use, guarding against scale-tuned results.
func TestFig7CrossScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-scale sweep is slow")
	}
	c := Default()
	c.Scale = 128
	rows, _, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		// On large-size mixes MHA and HARL land within a few percent of
		// each other (their layouts converge); the ordering against DEF is
		// the robust cross-scale claim.
		if !(row.Write[layout.MHA] >= 0.95*row.Write[layout.HARL]) {
			t.Errorf("scale 128 %s: MHA %.1f well below HARL %.1f",
				row.Label, row.Write[layout.MHA], row.Write[layout.HARL])
		}
		if !(row.Write[layout.MHA] > 1.2*row.Write[layout.DEF]) {
			t.Errorf("scale 128 %s: MHA %.1f lacks a win over DEF %.1f",
				row.Label, row.Write[layout.MHA], row.Write[layout.DEF])
		}
	}
}

// The headline MHA-over-DEF result must also hold under bulk-synchronous
// (LockStep) pacing, which is how the paper's applications actually run.
func TestLockStepPacingPreservesOrdering(t *testing.T) {
	c := testConfig()
	c.ReplayMode = replay.LockStep
	tr, err := workload.IOR(workload.IORConfig{
		File: "f", Op: trace.OpWrite,
		Sizes: []int64{128 * units.KB, 256 * units.KB}, Procs: []int{16},
		FileSize: 16 * units.MB, Shuffle: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := c.RunAllSchemes(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !(runs[layout.MHA].Result.Bandwidth() > runs[layout.DEF].Result.Bandwidth()) {
		t.Errorf("lockstep: MHA %.1f not above DEF %.1f",
			runs[layout.MHA].Result.Bandwidth(), runs[layout.DEF].Result.Bandwidth())
	}
}
