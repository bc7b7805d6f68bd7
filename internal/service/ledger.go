package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Entry kinds. A submission is recorded whether or not it was a
// duplicate — the ledger's contract is "duplicates allowed but
// detectable": resubmitting never fails and never re-plans, but every
// submission leaves a row with the submitter and the virtual time, so an
// operator can ask "who keeps re-triggering this job?" per tenant.
const (
	KindSubmit   = "submit"
	KindComplete = "complete"
	KindFail     = "fail"
	KindCancel   = "cancel"
)

// Entry is one ledger row. Seq totally orders entries across process
// restarts (the on-disk ledger is replayed on open and the counter
// resumes); Time is the virtual clock of the recording process.
type Entry struct {
	Seq       uint64  `json:"seq"`
	Time      float64 `json:"time"`
	Kind      string  `json:"kind"`
	Job       string  `json:"job"` // JobID hex
	Tenant    string  `json:"tenant"`
	Scheme    string  `json:"scheme,omitempty"`    // submit entries
	Submitter string  `json:"submitter,omitempty"` // submit entries
	Duplicate bool    `json:"duplicate,omitempty"` // submit entries: an earlier submission of this job exists
	Error     string  `json:"error,omitempty"`     // fail entries: the planner's error
}

// ledgerFile is the on-disk ledger name under the service directory.
const ledgerFile = "ledger.jsonl"

// Ledger is the service's append-only submission record. With a
// directory it persists as one JSON line per entry, replayed on open so
// duplicate detection and job states survive restarts; without one it is
// memory-only. A Ledger is not safe for concurrent use — the service's
// single-threaded event loop is its only writer.
type Ledger struct {
	entries []Entry
	f       *os.File // nil when memory-only or read-only
}

// OpenLedger opens (creating if needed) the ledger under dir, replaying
// any existing entries; an empty dir yields a memory-only ledger.
func OpenLedger(dir string) (*Ledger, error) {
	l := &Ledger{}
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	path := filepath.Join(dir, ledgerFile)
	entries, err := readLedgerFile(path)
	if err != nil {
		return nil, err
	}
	l.entries = entries
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	l.f = f
	return l, nil
}

// ReadLedger loads the ledger under dir without opening it for appends —
// the status-query path, safe to run beside nothing at all.
func ReadLedger(dir string) ([]Entry, error) {
	return readLedgerFile(filepath.Join(dir, ledgerFile))
}

// readLedgerFile parses a JSONL ledger. A missing file is an empty
// ledger. A torn final line — the signature of a crash mid-append — is
// dropped; a malformed line anywhere else is corruption and errors out,
// because silently skipping interior rows would un-detect duplicates.
func readLedgerFile(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	last := len(lines) - 1
	for last >= 0 && len(bytes.TrimSpace(lines[last])) == 0 {
		last--
	}
	var entries []Entry
	for i := 0; i <= last; i++ {
		text := bytes.TrimSpace(lines[i])
		if len(text) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(text, &e); err != nil {
			if i == last {
				// Final line and unparsable: a torn append. Everything
				// before it is intact; the lost entry is re-recorded by
				// whoever retries the operation.
				return entries, nil
			}
			return nil, fmt.Errorf("service: %s:%d: corrupt ledger entry: %w", path, i+1, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Append records one entry, persisting it when dir-backed. The write is
// best-effort durable (no fsync): losing the OS buffer loses at most the
// tail entries, which readLedgerFile already tolerates.
func (l *Ledger) Append(e Entry) error {
	l.entries = append(l.entries, e)
	if l.f == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// Entries returns every entry in seq order. The slice is shared; callers
// must not mutate it.
func (l *Ledger) Entries() []Entry { return l.entries }

// Duplicates returns the tenant's duplicate submissions in seq order —
// the "who keeps re-triggering this?" query.
func (l *Ledger) Duplicates(tenant string) []Entry {
	var out []Entry
	for _, e := range l.entries {
		if e.Tenant == tenant && e.Kind == KindSubmit && e.Duplicate {
			out = append(out, e)
		}
	}
	return out
}

// Close releases the append handle (memory-only ledgers are a no-op).
func (l *Ledger) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// JobSummary condenses one job's ledger history — the plan-status view,
// derivable from the ledger alone with no live service.
type JobSummary struct {
	Job         string  `json:"job"`
	Tenant      string  `json:"tenant"`
	Scheme      string  `json:"scheme"`
	State       string  `json:"state"` // submitted|done|failed|cancelled
	Submissions int     `json:"submissions"`
	Duplicates  int     `json:"duplicates"`
	FirstSubmit float64 `json:"first_submit"`
	LastEntry   float64 `json:"last_entry"`
	Error       string  `json:"error,omitempty"`
}

// SummarizeLedger folds entries into per-job summaries, ordered by each
// job's first appearance (seq order), so the output is deterministic and
// map-iteration never reaches a sink.
func SummarizeLedger(entries []Entry) []JobSummary {
	index := make(map[string]int)
	var out []JobSummary
	for _, e := range entries {
		i, ok := index[e.Job]
		if !ok {
			i = len(out)
			index[e.Job] = i
			out = append(out, JobSummary{
				Job: e.Job, Tenant: e.Tenant, State: "submitted", FirstSubmit: e.Time,
			})
		}
		s := &out[i]
		s.LastEntry = e.Time
		switch e.Kind {
		case KindSubmit:
			s.Submissions++
			if e.Duplicate {
				s.Duplicates++
			}
			if e.Scheme != "" {
				s.Scheme = e.Scheme
			}
		case KindComplete:
			s.State = "done"
		case KindFail:
			s.State = "failed"
			s.Error = e.Error
		case KindCancel:
			s.State = "cancelled"
		}
	}
	return out
}
