package bench

import (
	"fmt"

	"mhafs/internal/layout"
	"mhafs/internal/metrics"
	"mhafs/internal/trace"
	"mhafs/internal/units"
	"mhafs/internal/workload"
)

// Fig14Row is one process count of the redirection-overhead experiment.
type Fig14Row struct {
	Procs       int
	BaseBW      float64 // MB/s without redirection
	RedirectBW  float64 // MB/s with redirection to the original layout
	OverheadPct float64 // (baseTime→redirectTime) slowdown in percent
}

// fig14Procs are the process counts of Fig. 14.
var fig14Procs = []int{8, 32, 128}

// Fig14 reproduces the redirection-overhead measurement: IOR with mixed
// 4 KB and 64 KB requests is replayed twice — under an empty DEF plan
// (no redirection), then under an empty MHA plan, whose redirector
// consults an empty DRT so every request is redirected back to the
// original I/O system. The difference is pure middleware overhead.
func (c Config) Fig14() ([]Fig14Row, *metrics.Table, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	rows, err := parallelRows(c, len(fig14Procs), func(cc Config, i int) (Fig14Row, error) {
		procs := fig14Procs[i]
		tr, err := workloadFig14(cc, procs)
		if err != nil {
			return Fig14Row{}, err
		}
		base, err := cc.replayPlan(layout.Plan{Scheme: layout.DEF}, tr)
		if err != nil {
			return Fig14Row{}, err
		}
		redir, err := cc.replayPlan(layout.Plan{Scheme: layout.MHA}, tr)
		if err != nil {
			return Fig14Row{}, err
		}
		row := Fig14Row{
			Procs:      procs,
			BaseBW:     base.Bandwidth(),
			RedirectBW: redir.Bandwidth(),
		}
		if base.Makespan > 0 {
			row.OverheadPct = (redir.Makespan - base.Makespan) / base.Makespan * 100
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable("Fig. 14: MHA redirection overhead, IOR 4+64KB",
		"procs", "base MB/s", "redirected MB/s", "overhead %")
	for _, r := range rows {
		tb.AddRow(r.Procs, r.BaseBW, r.RedirectBW, r.OverheadPct)
	}
	return rows, tb, nil
}

// workloadFig14 builds the Fig. 14 workload: IOR writes with mixed 4 KB
// and 64 KB request sizes.
func workloadFig14(c Config, procs int) (trace.Trace, error) {
	return workload.IOR(workload.IORConfig{
		File: "ior.dat", Op: trace.OpWrite,
		Sizes:    []int64{4 * units.KB, 64 * units.KB},
		Procs:    []int{procs},
		FileSize: c.scaled(fig7FileSize) / 4,
		Shuffle:  true, Seed: 14,
	})
}

// MetaOverheadRow is the analytic meta-data space computation of §V-E2.
type MetaOverheadRow struct {
	RequestSize int64
	EntryBytes  int64
	MaxEntries  int64 // per GB of storage
	OverheadPct float64
}

// drtEntryBytes is the paper's DRT entry size: six 4-byte variables.
const drtEntryBytes = 6 * 4

// MetaOverhead reproduces the meta-data space analysis: with S GB of
// storage and every request at the given size, the DRT holds at most
// S/size entries of 24 bytes — 0.6 % of the data space in the worst case
// (4 KB requests).
func MetaOverhead(requestSizes []int64) ([]MetaOverheadRow, *metrics.Table) {
	var rows []MetaOverheadRow
	for _, sz := range requestSizes {
		perGB := int64(units.GB) / sz
		rows = append(rows, MetaOverheadRow{
			RequestSize: sz,
			EntryBytes:  drtEntryBytes,
			MaxEntries:  perGB,
			OverheadPct: float64(drtEntryBytes) / float64(sz) * 100,
		})
	}
	tb := metrics.NewTable("Meta-data space overhead (§V-E2)",
		"request size", "entry bytes", "entries/GB", "overhead %")
	for _, r := range rows {
		tb.AddRow(units.Bytes(r.RequestSize).String(), r.EntryBytes, r.MaxEntries,
			fmt.Sprintf("%.3f", r.OverheadPct))
	}
	return rows, tb
}
