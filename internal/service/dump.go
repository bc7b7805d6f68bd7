package service

import (
	"encoding/json"
	"io"
	"sort"
)

// StateDump is the service's full externally visible state in canonical
// form: jobs sorted by ID, ledger entries in seq order, lifecycle
// counters. Marshaling a dump is byte-stable, which is what the CI
// determinism gate diffs across worker counts.
type StateDump struct {
	Time   float64      `json:"time"` // virtual clock at dump
	Jobs   []Status     `json:"jobs"`
	Ledger []Entry      `json:"ledger"`
	Stats  Stats        `json:"stats"`
	Queued int          `json:"queued"` // jobs still pending in tenant queues
	Cache  *CacheCounts `json:"cache,omitempty"`
}

// CacheCounts mirrors the plan cache's scheduling-independent aggregates
// (DESIGN.md §17): planner executions (exactly one per distinct key) and
// calls served without planning. Both are functions of the workload
// alone; the finer hit-vs-coalesced split is deliberately not dumped.
type CacheCounts struct {
	Requests uint64 `json:"requests"`
	Planned  uint64 `json:"planned"`
	Served   uint64 `json:"served"`
}

// Snapshot captures the dump.
func (s *Service) Snapshot() StateDump {
	dump := StateDump{
		Time:   s.Now(),
		Stats:  s.stats,
		Queued: s.depth,
		Ledger: append([]Entry(nil), s.ledger.Entries()...),
	}
	for _, id := range s.order {
		dump.Jobs = append(dump.Jobs, s.status(s.jobs[id]))
	}
	sort.Slice(dump.Jobs, func(i, j int) bool { return dump.Jobs[i].ID < dump.Jobs[j].ID })
	if c := s.cfg.Cache; c != nil {
		st := c.Stats()
		served := st.Hits + st.Coalesced + st.DiskHits
		dump.Cache = &CacheCounts{
			Requests: st.Misses + served,
			Planned:  st.Misses,
			Served:   served,
		}
	}
	return dump
}

// WriteState writes the dump as indented canonical JSON plus a newline.
func (s *Service) WriteState(w io.Writer) error {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
