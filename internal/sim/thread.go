package sim

import (
	"pcoup/internal/isa"
	"pcoup/internal/regfile"
)

// Thread is one active instruction stream. Each thread has its own
// instruction pointer and logical register set (distributed over the
// clusters) but shares the function units, interconnect, and memory with
// all other threads.
type Thread struct {
	ID       int
	Priority int // lower value wins arbitration; equals spawn order
	SegIdx   int
	Seg      *isa.ThreadCode
	Regs     *regfile.Set

	// IP indexes the current (partially issued) instruction word.
	IP int
	// issued[slot] marks operations of the current word already issued.
	// It is the checkpoint wire form and, under dynamic issue, aliases the
	// window head's bitmap; the kernel itself reads pend.
	issued []bool
	// pend has bit slot set while the current word's operation in that
	// slot exists and has not issued: set from the word in resetWord (or
	// rebuilt by syncHead and Restore), cleared at issue. The word is done
	// when pend is zero. machine.MaxTotalUnits is 64, so one word holds
	// every slot.
	pend uint64
	// branchTaken/branchTarget record the outcome of a branch operation
	// issued from the current word; applied when the word completes.
	branchTaken  bool
	branchTarget int

	Halted  bool
	SpawnAt int64 // cycle the thread became active
	HaltAt  int64 // cycle the thread issued halt

	OpsIssued int64
	// lastIssue is the most recent cycle in which the thread issued at
	// least one operation (stall attribution's "issued" test).
	lastIssue int64
	// stalls accumulates the thread's per-cycle classifications; nil
	// unless stall attribution is enabled.
	stalls *StallBreakdown
	// storesOut counts the thread's ordinary stores still in flight in
	// the memory system. Producing stores (SyncProduce) have release
	// semantics: they issue only once this count reaches zero, so a
	// completion flag is never visible before the data it covers. Fork
	// waits likewise, so a child always observes memory the parent wrote
	// before spawning it.
	storesOut int
	// syncLoadsOut counts outstanding synchronizing loads (waitfull or
	// consume). Such loads are acquire fences: no later memory operation
	// of this thread issues until they complete, so data guarded by a
	// flag is never read before the flag.
	syncLoadsOut int
	// dyn is the thread's dynamic-scheduling state (issue window and
	// squash bookkeeping); nil unless cfg.Dynamic.Window > 0. When set,
	// IP and issued alias the window's head entry (and pend follows it),
	// so the word-oriented helpers keep seeing the architectural frontier.
	dyn *dynThread
	// stalled caches "no unissued operation of the current word is
	// ready": issue arbitration skips the thread until an event that can
	// change its readiness clears the flag — a register writeback, a
	// memory completion, a frontier move, or any thread halting (halts
	// free a thread slot, which is what a blocked fork waits on).
	// Readiness depends on nothing else, so skipping a stalled thread
	// cannot change any arbitration outcome.
	stalled bool
}

// word returns the current instruction word, or nil if the thread has run
// off the end of its code.
func (t *Thread) word() *isa.Instruction {
	if t.IP < 0 || t.IP >= len(t.Seg.Instrs) {
		return nil
	}
	return &t.Seg.Instrs[t.IP]
}

// pendMask returns the slots of w holding an operation not marked in
// issued (a slot beyond issued counts as unissued); nil w has none.
func pendMask(w *isa.Instruction, issued []bool) uint64 {
	if w == nil {
		return 0
	}
	var m uint64
	for slot, op := range w.Ops {
		if op != nil && (slot >= len(issued) || !issued[slot]) {
			m |= 1 << slot
		}
	}
	return m
}

// resetWord prepares issue bookkeeping for a new current word.
func (t *Thread) resetWord() {
	w := t.word()
	n := 0
	if w != nil {
		n = len(w.Ops)
	}
	if cap(t.issued) < n {
		t.issued = make([]bool, n)
	} else {
		t.issued = t.issued[:n]
		for i := range t.issued {
			t.issued[i] = false
		}
	}
	t.pend = pendMask(w, nil)
	t.branchTaken = false
	t.branchTarget = -1
	t.stalled = false
}

// advance moves the thread to its next instruction word after the current
// word has fully issued, following any branch decision recorded for the
// word. Words containing no operations are skipped. It returns false when
// the thread has no more words (implicit halt).
func (t *Thread) advance() bool {
	for {
		next := t.IP + 1
		if t.branchTaken {
			next = t.branchTarget
		}
		t.IP = next
		t.resetWord()
		w := t.word()
		if w == nil {
			return false
		}
		if w.NumOps() > 0 {
			return true
		}
		// Empty word: fall through (it cannot contain a branch).
	}
}

// ThreadStats is the per-thread summary reported in a Result.
type ThreadStats struct {
	ID        int
	Segment   string
	SpawnAt   int64
	HaltAt    int64
	OpsIssued int64
	// PeakRegs is the peak register usage per cluster.
	PeakRegs []int
	// Stalls is the thread's per-cycle classification histogram; nil
	// unless stall attribution was enabled. Its Total() equals
	// HaltAt - SpawnAt (one classification per active cycle).
	Stalls *StallBreakdown
}
