package sim

import "fmt"

// RunCheckingIssueState runs s to completion as Run does on a healthy
// machine, but steps the kernel by hand so the incremental issue state
// can be checked around every step:
//   - when a step begins, s.threads is exactly the activated, unhalted
//     threads of s.byID, in ID order;
//   - after it, every unhalted thread's pend is exactly the non-nil,
//     unissued slots of its current word (the window head's, under
//     dynamic issue).
//
// Skipping follows Run's event core (including the probe backoff)
// unless WithCycleSkipping(false) was given, so both kernels are
// checked. The watchdog, cancellation and checkpoints are left out.
func RunCheckingIssueState(s *Sim, maxCycles int64) (*Result, error) {
	const stallLimit = 20_000
	s.skipOK = s.skipAllowed()
	for !s.finished() {
		// step begins with activateSpawns; calling it first exposes the
		// live list this cycle will issue from (step's own call then has
		// nothing to do).
		s.activateSpawns()
		if err := s.checkLiveList(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", s.cycle+1, err)
		}
		s.step()
		if err := s.checkPend(); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
		if err := s.mem.Fault(); err != nil {
			return nil, err
		}
		if s.cycle-s.lastProgress > stallLimit {
			return nil, s.deadlock()
		}
		if s.cycle >= maxCycles && !s.finished() {
			return nil, &BudgetError{MaxCycles: maxCycles, Cycle: s.cycle}
		}
		if s.quiet && s.skipOK && !s.probeOff {
			if k := s.skipBudget(stallLimit, maxCycles); k > 0 {
				s.skipCycles(k)
				s.probeMisses = 0
			} else if s.probeMisses++; s.probeMisses >= probeBackoff {
				s.probeOff = true
			}
		}
	}
	s.finalize()
	res := s.stats
	return &res, nil
}

func (s *Sim) checkLiveList() error {
	i := 0
	for _, t := range s.byID {
		if t.Halted {
			continue
		}
		if i >= len(s.threads) || s.threads[i] != t {
			return fmt.Errorf("live list %v, want unhalted thread %d at position %d", threadIDs(s.threads), t.ID, i)
		}
		i++
	}
	if i != len(s.threads) {
		return fmt.Errorf("live list %v holds %d threads, %d are unhalted", threadIDs(s.threads), len(s.threads), i)
	}
	return nil
}

func (s *Sim) checkPend() error {
	for _, t := range s.byID {
		if t.Halted {
			continue
		}
		var want uint64
		if w := t.word(); w != nil {
			for slot, op := range w.Ops {
				if op != nil && !t.issued[slot] {
					want |= 1 << slot
				}
			}
		}
		if t.pend != want {
			return fmt.Errorf("thread %d at word %d: pend %#x, want %#x", t.ID, t.IP, t.pend, want)
		}
	}
	return nil
}

func threadIDs(ts []*Thread) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}
