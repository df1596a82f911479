package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// seedJournal writes raw records as a previous daemon would have left
// them (no compaction, no finish for pending jobs).
func seedJournal(t *testing.T, path string, write func(j *journal)) {
	t.Helper()
	j, pending, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if pending != nil {
		t.Fatalf("fresh journal reported pending jobs: %v", pending)
	}
	write(j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func cellSpec() JobSpec {
	return JobSpec{Cell: &CellSpec{Bench: "matrix", Mode: "Coupled"}}
}

// TestJournalRecoversInterruptedJob simulates a daemon killed mid-job:
// the journal holds a submit with no finish. The next Start must
// resubmit the job under the same ID, run it to completion, and count
// the recovery in /metrics.
func TestJournalRecoversInterruptedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		if err := j.submit("j-000007", spec, "", 0); err != nil {
			t.Fatal(err)
		}
	})

	srv, ts := newTestServer(t, Options{Workers: 1, JournalFile: path, RetryBackoff: time.Millisecond})
	view := waitJob(t, ts, "j-000007")
	if view.State != JobDone {
		t.Fatalf("recovered job state %s (%s), want done", view.State, view.Error)
	}
	if view.Attempts != 1 {
		t.Errorf("recovered job attempts = %d, want 1", view.Attempts)
	}

	if v := metricValue(t, ts, "pcserved_journal_recovered_total"); v != 1 {
		t.Errorf("pcserved_journal_recovered_total = %v, want 1", v)
	}

	// New submissions must not collide with the recovered ID space.
	next := submit(t, ts, cellSpec())
	if next.ID <= "j-000007" {
		t.Errorf("post-recovery submission got ID %s, want one after j-000007", next.ID)
	}
	_ = srv
}

// TestJournalFinishedJobNotReplayed: a submit paired with a finish is
// complete; restart must not resurrect it.
func TestJournalFinishedJobNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000001", spec, "", 0)
		j.finish("j-000001", JobDone)
	})
	srv, ts := newTestServer(t, Options{Workers: 1, JournalFile: path})
	if _, err := srv.jobs.Get("j-000001"); err == nil {
		t.Error("finished job was resurrected from the journal")
	}
	if v := metricValue(t, ts, "pcserved_journal_recovered_total"); v != 0 {
		t.Errorf("pcserved_journal_recovered_total = %v, want 0", v)
	}
}

// TestJournalRetryBudget: a job interrupted as many times as the budget
// allows is failed, not re-run, and the exhaustion is counted.
func TestJournalRetryBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000003", spec, "", 2) // two prior interruptions; budget 2 -> third attempt over budget
	})
	_, ts := newTestServer(t, Options{Workers: 1, JournalFile: path, RetryBudget: 2})
	view := waitJob(t, ts, "j-000003")
	if view.State != JobFailed || !strings.Contains(view.Error, "retry budget") {
		t.Errorf("over-budget job: state %s error %q, want failed with retry budget message", view.State, view.Error)
	}
	if v := metricValue(t, ts, "pcserved_retry_budget_exhausted_total"); v != 1 {
		t.Errorf("pcserved_retry_budget_exhausted_total = %v, want 1", v)
	}
}

// TestJournalSurvivesTornTrailingRecord: a record half-written at kill
// time must not poison replay of the earlier records.
func TestJournalSurvivesTornTrailingRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		j.submit("j-000001", spec, "", 0)
	})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"fin`) // torn mid-record
	f.Close()

	_, pending, err := openJournal(path)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	if len(pending) != 1 || pending[0].ID != "j-000001" {
		t.Errorf("pending = %v, want the one intact submission", pending)
	}
}

// TestJournalCompaction: reopening rewrites the file to only live
// records, so the journal does not grow with daemon lifetime.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	seedJournal(t, path, func(j *journal) {
		spec := cellSpec()
		for i := 1; i <= 20; i++ {
			id := "j-00000" + string(rune('0'+i%10))
			j.submit(id, spec, "", 0)
			j.finish(id, JobDone)
		}
	})
	j, pending, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(pending) != 0 {
		t.Fatalf("pending = %v, want none", pending)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("compacted journal not empty: %q", data)
	}
}

func TestRetryDelay(t *testing.T) {
	base := time.Second
	for _, tc := range []struct {
		attempts int
		want     time.Duration
	}{
		{0, 0}, {1, 0}, {2, base}, {3, 2 * base}, {4, 4 * base}, {100, maxRetryBackoff},
	} {
		if got := retryDelay(base, tc.attempts); got != tc.want {
			t.Errorf("retryDelay(%v, %d) = %v, want %v", base, tc.attempts, got, tc.want)
		}
	}
}
