package sim

// Regression tests for the adaptive probe fallback: busy cells must not
// pay for the event core, and memory-bound cells must keep their
// cycle-skipping win.
//
// The busy-cell budget from the issue ("within 2% of the ticking
// kernel") is asserted structurally rather than by wall clock: repeated
// perf runs show the wall-clock ratio on these sub-10k-cycle cells
// swings ±8% run to run from construction and scheduling noise, so a 2%
// timing assertion would flake. With zero probes the two kernels execute
// identical per-cycle work — the event core's only remaining overhead is
// the quiet-flag branch in Run — so probes==0 is the deterministic form
// of the same guarantee.

import (
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// chainMachine is the mini machine with 2-cycle integer units: a
// dependent add chain then has a one-cycle bubble per op in which the
// machine is quiet but the next writeback is due immediately, so every
// skip probe fails — the adaptive fallback's target pattern.
func chainMachine() *machine.Config {
	cfg := miniMachine()
	cfg.Clusters[0].Units[0].Latency = 2
	return cfg
}

// addChain builds n dependent adds on the latency-2 IU (ping-ponging two
// registers so the chain depth is unbounded by the register file).
func addChain(n int) []isa.Instruction {
	instrs := []isa.Instruction{
		word(opAdd(uIU0, r(0, 0), isa.ImmInt(1), isa.ImmInt(1))),
	}
	for i := 1; i < n; i++ {
		instrs = append(instrs,
			word(opAdd(uIU0, r(0, (i+1)%2), isa.Reg(r(0, i%2)), isa.ImmInt(1))))
	}
	return instrs
}

// TestAdaptiveProbeBackoffEngages: on a pure compute chain every probe
// fails (the next writeback is always due on the very next cycle), so
// the core must stop probing after exactly probeBackoff misses — and the
// result must still be bit-identical to the ticking kernel.
func TestAdaptiveProbeBackoffEngages(t *testing.T) {
	const chainLen = 3 * probeBackoff
	p := prog(&isa.ThreadCode{Name: "main",
		Instrs: append(addChain(chainLen), word(opHalt()))})
	run := func(opts ...Option) (*Result, *Sim) {
		s, err := New(chainMachine(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(10_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	want, _ := run(WithCycleSkipping(false))
	got, event := run()
	if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
		t.Errorf("event core diverged from ticking kernel:\nwant %s\ngot  %s", jw, jg)
	}
	// The chain has ~chainLen quiet bubbles; without the fallback the
	// core would probe every one of them.
	if event.probes != probeBackoff {
		t.Errorf("probes = %d, want exactly probeBackoff = %d (fallback must cap failed probes)",
			event.probes, probeBackoff)
	}
	if !event.probeOff {
		t.Error("probeOff = false after a chain of failed probes, want true")
	}
	if event.skipped != 0 {
		t.Errorf("skipped = %d on a chain with no skippable window, want 0", event.skipped)
	}
}

// TestAdaptiveProbeRearmsOnMemory: after the fallback disengages probing
// on a compute chain, a long-latency load must re-arm it — otherwise the
// load's idle window (the event core's whole reason to exist) would be
// ticked cycle by cycle.
func TestAdaptiveProbeRearmsOnMemory(t *testing.T) {
	const memLatency = 500
	cfg := chainMachine()
	cfg.Memory = machine.MemoryModel{Name: "slow", HitLatency: memLatency, Banks: 4}
	instrs := append(addChain(2*probeBackoff),
		word(opLoad(uMEM0, r(0, 2), 8, isa.SyncNone)),
		word(opAdd(uIU0, r(0, 3), isa.Reg(r(0, 2)), isa.ImmInt(1))),
		word(opStore(uMEM0, isa.Reg(r(0, 3)), 9)),
		word(opHalt()))
	p := prog(&isa.ThreadCode{Name: "main", Instrs: instrs})
	run := func(opts ...Option) (*Result, *Sim) {
		s, err := New(cfg, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(50_000)
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	want, _ := run(WithCycleSkipping(false))
	got, event := run()
	if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
		t.Errorf("event core diverged from ticking kernel:\nwant %s\ngot  %s", jw, jg)
	}
	// The compute prefix is long enough to engage the fallback; if the
	// load issue failed to re-arm probing, the load's ~memLatency idle
	// cycles would all be ticked and skipped would stay 0.
	if event.skipped < memLatency*3/5 {
		t.Errorf("skipped = %d, want >= %d (load window must be skipped after re-arm)",
			event.skipped, memLatency*3/5)
	}
}

// compileBaseline compiles a benchmark for a config (Unrestricted mode,
// the perf experiment's Coupled cell).
func compileBaseline(t *testing.T, name string, cfg *machine.Config) *isa.Program {
	t.Helper()
	b, err := bench.Get(name, bench.Threaded)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := compiler.Compile(b.Source, cfg, compiler.Options{Mode: compiler.Unrestricted})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBusyCellsPayNothing: the four baseline-latency benchmarks keep
// every unit busy enough that no quiet cycle ever opens; the event core
// must therefore do zero probe work on them (the deterministic form of
// "within 2% of the ticking kernel" — see the file comment) while
// producing the bit-identical result.
func TestBusyCellsPayNothing(t *testing.T) {
	for _, name := range []string{"matrix", "fft", "model", "lud"} {
		cfg := machine.Baseline()
		p := compileBaseline(t, name, cfg)
		run := func(opts ...Option) (*Result, *Sim) {
			s, err := New(cfg, p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			return res, s
		}
		want, _ := run(WithCycleSkipping(false))
		got, event := run()
		if jw, jg := resultJSON(t, want), resultJSON(t, got); jw != jg {
			t.Errorf("%s: event core diverged from ticking kernel", name)
		}
		if event.probes != 0 || event.memProbes != 0 {
			t.Errorf("%s: probes = %d, memProbes = %d; busy cell must never probe",
				name, event.probes, event.memProbes)
		}
	}
}

// TestMemoryBoundKeepsSkipWin: lud on the statistical slow memory is the
// event core's headline case (~1.8x over ticking in BENCH_sim.json).
// That win is the skip fraction: ~85% of its cycles are provably idle
// and jumped over. The adaptive fallback must not erode it — memory
// activity re-arms probing before every idle window.
func TestMemoryBoundKeepsSkipWin(t *testing.T) {
	cfg := machine.Baseline().WithMemory(machine.MemSlow)
	p := compileBaseline(t, "lud", cfg)
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(s.skipped) / float64(res.Cycles); frac < 0.8 {
		t.Errorf("skip fraction = %.3f (%d of %d cycles), want >= 0.8 — the event core's win depends on it",
			frac, s.skipped, res.Cycles)
	}
}
