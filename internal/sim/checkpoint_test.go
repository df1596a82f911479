package sim

import (
	"strings"
	"testing"
)

// pingPongCheckpoint snapshots a two-thread ping-pong mid-run, with both
// threads live.
func pingPongCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	s, err := New(miniMachine(), pingPong(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.step()
	}
	ck, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Threads) != 2 || ck.Threads[0].Halted || ck.Threads[1].Halted {
		t.Fatalf("want two live threads at cycle %d, checkpoint has %+v", ck.Cycle, ck.Threads)
	}
	return ck
}

// restoreErr restores ck onto a fresh ping-pong Sim and returns the error.
func restoreErr(t *testing.T, ck *Checkpoint) error {
	t.Helper()
	s, err := New(miniMachine(), pingPong(10))
	if err != nil {
		t.Fatal(err)
	}
	return s.Restore(ck)
}

func TestRestoreRejectsUnorderedThreads(t *testing.T) {
	ck := pingPongCheckpoint(t)
	if err := restoreErr(t, ck); err != nil {
		t.Fatalf("restoring the untouched checkpoint: %v", err)
	}
	ck.Threads[0], ck.Threads[1] = ck.Threads[1], ck.Threads[0]
	err := restoreErr(t, ck)
	if err == nil || !strings.Contains(err.Error(), "thread 0 follows thread 1") {
		t.Fatalf("restore of threads out of ID order: error %v, want one naming thread 0", err)
	}
}

func TestRestoreRejectsPriorityMismatch(t *testing.T) {
	ck := pingPongCheckpoint(t)
	ck.Threads[1].Priority = 0
	err := restoreErr(t, ck)
	if err == nil || !strings.Contains(err.Error(), "thread 1 has priority 0") {
		t.Fatalf("restore of a thread whose priority differs from its ID: error %v, want one naming thread 1", err)
	}
}
