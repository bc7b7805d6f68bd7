package bench

import (
	"fmt"
	"time"

	"mhafs/internal/device"
	"mhafs/internal/layout"
	"mhafs/internal/metrics"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// AblationRow is one configuration of the design-choice ablations.
type AblationRow struct {
	Variant   string
	Bandwidth float64 // MB/s on the reference workload
	CellTime  float64 // wall-clock seconds of the whole RunScheme cell: plan + apply + replay
	Regions   int
}

// StepAblation quantifies §III-F's claim that "finer 'step' values result
// in more precise stripe pairs, but with increased calculation overhead":
// the reference mixed-size IOR workload is planned and replayed under MHA
// with different RSSD search steps.
func (c Config) StepAblation() ([]AblationRow, *metrics.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := workload.IOR(workload.IORConfig{
		File: "ior.dat", Op: trace.OpWrite,
		Sizes: []int64{128 * units.KB, 256 * units.KB}, Procs: []int{32},
		FileSize: c.scaled(fig7FileSize), Shuffle: true, Seed: 7,
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	for _, step := range []int64{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB} {
		cc := c
		cc.Env.Step = step
		start := time.Now()
		run, err := cc.RunScheme(layout.MHA, tr)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, AblationRow{
			Variant:   fmt.Sprintf("step=%s", units.Bytes(step)),
			Bandwidth: run.Result.Bandwidth(),
			CellTime:  time.Since(start).Seconds(),
			Regions:   len(run.Plan.Regions),
		})
	}
	tb := ablationTable("Ablation: RSSD search step (§III-F), IOR 128+256KB write", rows)
	return rows, tb, nil
}

// GroupBoundAblation sweeps the upper bound on the group count k — the
// paper's guard against meta-data blow-up (§III-D) — on a workload with
// many distinct request sizes (sparse Cholesky).
func (c Config) GroupBoundAblation() ([]AblationRow, *metrics.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	cfg := workload.DefaultCholesky()
	cfg.Panels = c.scaledCount(fig13Panels)
	tr, err := workload.Cholesky(cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	for _, maxK := range []int{1, 2, 4, 8, 16, 32} {
		cc := c
		cc.Env.MaxRegions = maxK
		start := time.Now()
		run, err := cc.RunScheme(layout.MHA, tr)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, AblationRow{
			Variant:   fmt.Sprintf("maxK=%d", maxK),
			Bandwidth: run.Result.Bandwidth(),
			CellTime:  time.Since(start).Seconds(),
			Regions:   len(run.Plan.Regions),
		})
	}
	tb := ablationTable("Ablation: group-count bound k (§III-D), sparse Cholesky", rows)
	return rows, tb, nil
}

// ConcurrencyAblation compares MHA planned with the concurrency feature
// against a variant whose requests are all treated as concurrency 1 — the
// paper's extension over HARL's model ("we extend it by considering I/O
// concurrency for better cost estimation").
func (c Config) ConcurrencyAblation() ([]AblationRow, *metrics.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := workload.IOR(workload.IORConfig{
		File: "ior.dat", Op: trace.OpWrite,
		Sizes: []int64{128 * units.KB, 256 * units.KB}, Procs: []int{32},
		FileSize: c.scaled(fig7FileSize), Shuffle: true, Seed: 7,
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow

	full, err := c.RunScheme(layout.MHA, tr)
	if err != nil {
		return nil, nil, err
	}
	rows = append(rows, AblationRow{
		Variant: "with concurrency", Bandwidth: full.Result.Bandwidth(),
		Regions: len(full.Plan.Regions),
	})

	// Concurrency-blind variant: squash all time stamps so every request
	// appears isolated to the pattern analyzer.
	blind := tr.Clone()
	for i := range blind {
		blind[i].Time = float64(i) // strictly increasing, far apart
	}
	cc := c
	cc.Env.EpochWindow = 0
	blindRun, err := cc.RunScheme(layout.MHA, blind)
	if err != nil {
		return nil, nil, err
	}
	// The blind run replays the squashed trace, not the original. In the
	// default Independent mode that is the same replay: time stamps are
	// ignored and the squash keeps every rank's record order, so only the
	// plan differs.
	rows = append(rows, AblationRow{
		Variant: "concurrency-blind", Bandwidth: blindRun.Result.Bandwidth(),
		Regions: len(blindRun.Plan.Regions),
	})
	tb := ablationTable("Ablation: concurrency term of the cost model", rows)
	return rows, tb, nil
}

func ablationTable(title string, rows []AblationRow) *metrics.Table {
	tb := metrics.NewTable(title, "variant", "MB/s", "regions", "cell time (s)")
	for _, r := range rows {
		tb.AddRow(r.Variant, r.Bandwidth, r.Regions, fmt.Sprintf("%.3f", r.CellTime))
	}
	return tb
}

// StragglerAblation degrades one HServer (3x startup, a third of the
// streaming rate) and measures how each scheme's bandwidth suffers
// relative to the healthy cluster. The cost model is class-level — it
// cannot see a single slow disk — so this quantifies a known blind spot
// of the paper's approach (and of ours).
func (c Config) StragglerAblation() ([]AblationRow, *metrics.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := workload.IOR(workload.IORConfig{
		File: "ior.dat", Op: trace.OpWrite,
		Sizes: []int64{128 * units.KB, 256 * units.KB}, Procs: []int{32},
		FileSize: c.scaled(fig7FileSize), Shuffle: true, Seed: 7,
	})
	if err != nil {
		return nil, nil, err
	}
	slow := c.Cluster.HDD
	slow.ReadStartup *= 3
	slow.WriteStartup *= 3
	slow.ReadPerByte *= 3
	slow.WritePerByte *= 3
	slow.Name = slow.Name + "-degraded"

	var rows []AblationRow
	for _, scheme := range []layout.Scheme{layout.DEF, layout.MHA} {
		healthy, err := c.RunScheme(scheme, tr)
		if err != nil {
			return nil, nil, err
		}
		cc := c
		cc.Cluster.HDDOverrides = map[int]device.Model{0: slow}
		degraded, err := cc.RunScheme(scheme, tr)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows,
			AblationRow{Variant: scheme.String() + " healthy", Bandwidth: healthy.Result.Bandwidth()},
			AblationRow{Variant: scheme.String() + " straggler", Bandwidth: degraded.Result.Bandwidth()},
		)
	}
	tb := metrics.NewTable("Ablation: one degraded HServer (class-level model blind spot)",
		"variant", "MB/s")
	for _, r := range rows {
		tb.AddRow(r.Variant, r.Bandwidth)
	}
	return rows, tb, nil
}
