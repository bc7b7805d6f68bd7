package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerRoundTrip: entries appended by one ledger are replayed by the
// next open of the same directory, in order.
func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l1, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := []Entry{
		{Seq: 1, Time: 0, Kind: KindSubmit, Job: "aa", Tenant: "acme", Scheme: "mha", Submitter: "ana"},
		{Seq: 2, Time: 0.5, Kind: KindSubmit, Job: "aa", Tenant: "acme", Scheme: "mha", Submitter: "bob", Duplicate: true},
		{Seq: 3, Time: 1, Kind: KindComplete, Job: "aa", Tenant: "acme"},
	}
	for _, e := range in {
		if err := l1.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Entries()
	if len(got) != len(in) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("entry %d: %+v, want %+v", i, got[i], in[i])
		}
	}
	if dups := l2.Duplicates("acme"); len(dups) != 1 || dups[0].Submitter != "bob" {
		t.Errorf("Duplicates(acme) = %+v, want bob's resubmission", dups)
	}
	if dups := l2.Duplicates("umbrella"); len(dups) != 0 {
		t.Errorf("Duplicates(umbrella) = %+v, want none", dups)
	}
}

// TestLedgerMemoryOnly: an empty dir keeps everything in memory and
// leaves no files behind.
func TestLedgerMemoryOnly(t *testing.T) {
	l, err := OpenLedger("")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Seq: 1, Kind: KindSubmit, Job: "aa", Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if len(l.Entries()) != 1 {
		t.Fatal("memory ledger lost the entry")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTornTail: an unparsable final line — a crash mid-append — is
// dropped; everything before it survives.
func TestLedgerTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Entry{Seq: 1, Kind: KindSubmit, Job: "aa", Tenant: "t"})
	l.Append(Entry{Seq: 2, Kind: KindComplete, Job: "aa", Tenant: "t"})
	l.Close()

	path := filepath.Join(dir, ledgerFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"kind":"sub`) // torn mid-write, no newline
	f.Close()

	entries, err := ReadLedger(dir)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(entries) != 2 || entries[1].Seq != 2 {
		t.Fatalf("replayed %+v, want the 2 intact entries", entries)
	}
}

// TestLedgerInteriorCorruption: a malformed line with valid entries after
// it is not a torn append — it is corruption, and silently skipping it
// would un-detect duplicates, so the open must fail.
func TestLedgerInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Entry{Seq: 1, Kind: KindSubmit, Job: "aa", Tenant: "t"})
	l.Close()

	path := filepath.Join(dir, ledgerFile)
	data, _ := os.ReadFile(path)
	mangled := "{broken\n" + string(data)
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadLedger(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("interior corruption must fail the open, got %v", err)
	}
	if _, err := OpenLedger(dir); err == nil {
		t.Fatal("OpenLedger accepted a corrupt ledger")
	}
}

// TestSummarizeLedger folds a multi-job history into per-job rows in
// first-appearance order.
func TestSummarizeLedger(t *testing.T) {
	entries := []Entry{
		{Seq: 1, Time: 0, Kind: KindSubmit, Job: "aa", Tenant: "acme", Scheme: "mha", Submitter: "ana"},
		{Seq: 2, Time: 0, Kind: KindSubmit, Job: "bb", Tenant: "umbrella", Scheme: "harl", Submitter: "eve"},
		{Seq: 3, Time: 1, Kind: KindSubmit, Job: "aa", Tenant: "acme", Scheme: "mha", Submitter: "bob", Duplicate: true},
		{Seq: 4, Time: 2, Kind: KindComplete, Job: "aa", Tenant: "acme"},
		{Seq: 5, Time: 3, Kind: KindFail, Job: "bb", Tenant: "umbrella", Error: "boom"},
	}
	got := SummarizeLedger(entries)
	if len(got) != 2 {
		t.Fatalf("summarized %d jobs, want 2", len(got))
	}
	a, b := got[0], got[1]
	if a.Job != "aa" || a.State != "done" || a.Submissions != 2 || a.Duplicates != 1 ||
		a.FirstSubmit != 0 || a.LastEntry != 2 || a.Scheme != "mha" {
		t.Errorf("job aa summary %+v", a)
	}
	if b.Job != "bb" || b.State != "failed" || b.Error != "boom" || b.Submissions != 1 {
		t.Errorf("job bb summary %+v", b)
	}
}
