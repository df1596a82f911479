package sim_test

// Kernel issue-state suite: the live-list and pending-slot invariants,
// checked around every step, and the pinned checkpoint of a spawn-heavy
// program (lud/Coupled forks 477 threads, at most 9 live at once).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/progfuzz"
	"pcoup/internal/sim"
)

// checkIssueState runs prog on cfg with the kernel stepped by hand
// (sim.RunCheckingIssueState), under the event core and under the
// ticking kernel: both must hold the invariants and agree. It returns
// their Result as JSON.
func checkIssueState(t *testing.T, name string, cfg *machine.Config, prog *isa.Program) string {
	t.Helper()
	run := func(kernel string, opts ...sim.Option) string {
		t.Helper()
		s, err := sim.New(cfg, prog, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.RunCheckingIssueState(s, 100_000_000)
		if err != nil {
			t.Fatalf("%s, %s: %v", name, kernel, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	event := run("event core")
	if ticking := run("ticking kernel", sim.WithCycleSkipping(false)); ticking != event {
		t.Fatalf("%s: ticking kernel differs from the event core:\nevent   %s\nticking %s", name, event, ticking)
	}
	return event
}

// TestIssueStateInvariants steps the kernel by hand, checking the live
// thread list and every thread's pending-slot mask around each step,
// with the event core and with the ticking kernel, over:
//   - every Table 2 cell (benchmark x supported mode), on the baseline
//     machine and under the windowed DynAll preset, where the checked
//     runs must also reproduce the verified experiments.Execute Result;
//   - the progfuzz corpus under every mode: on the baseline machine the
//     500 seeds and 24 wide (hundreds-of-threads) seeds of TestDiffCorpus
//     and TestDiffCorpusWide, under DynAll the 120 seeds of
//     TestDiffCorpusCoupledDyn.
func TestIssueStateInvariants(t *testing.T) {
	type machineCase struct {
		name        string
		cfg         *machine.Config
		seeds, wide int64
	}
	cases := []machineCase{
		{"baseline", machine.Baseline(), 500, 24},
		{"DynAll", machine.Baseline().WithDynamic(machine.DynAll), 120, 0},
	}
	if testing.Short() {
		cases[0].seeds, cases[0].wide, cases[1].seeds = 48, 4, 16
	}
	for _, mc := range cases {
		t.Run(mc.name+"/table2", func(t *testing.T) {
			t.Parallel()
			for _, b := range bench.Names() {
				for _, m := range experiments.Modes() {
					if !experiments.ModeSupported(b, m) {
						continue
					}
					name := fmt.Sprintf("%s/%s", b, m)
					r, err := experiments.Execute(b, m, mc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(r.Result)
					if err != nil {
						t.Fatal(err)
					}
					if got := checkIssueState(t, name, mc.cfg, r.Prog); got != string(want) {
						t.Fatalf("%s: checked run differs from Run:\nwant %s\ngot  %s", name, want, got)
					}
				}
			}
		})
		t.Run(mc.name+"/corpus", func(t *testing.T) {
			t.Parallel()
			corpus := func(seed int64, o progfuzz.GenOptions) {
				src := progfuzz.GenerateOpts(seed, o)
				for _, m := range experiments.Modes() {
					name := fmt.Sprintf("seed %d/%s", seed, m)
					prog, _, err := compiler.Compile(src, mc.cfg, compiler.Options{Mode: experiments.CompilerMode(m)})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkIssueState(t, name, mc.cfg, prog)
				}
			}
			for seed := int64(0); seed < mc.seeds; seed++ {
				corpus(seed, progfuzz.GenOptions{})
			}
			for seed := int64(0); seed < mc.wide; seed++ {
				corpus(1_000_000+seed, progfuzz.GenOptions{MaxArraySize: 256, WideForall: true})
			}
		})
	}
}

// ludPinnedCycle is a mid-run cycle of lud/Coupled on the baseline
// machine at which 208 threads have already halted and one forked child
// is still pending activation, so the snapshot covers both lists.
const ludPinnedCycle = 4157

// ludPinnedDigest is the SHA-256 of that checkpoint's JSON (taken with
// stall attribution on), recorded from the kernel that kept every thread
// ever spawned in its issue list. The checkpoint bytes must not depend
// on how the kernel keeps its issue state.
const ludPinnedDigest = "f50197ee7abcbca6801f3239364b64a9fc92f806dac82a86a273b9077e2d7838"

func TestLUDCheckpointPinned(t *testing.T) {
	cfg, prog := compileFor(t, "lud", bench.Threaded, compiler.Unrestricted)
	marshal := func(v any) []byte {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ref, err := sim.New(cfg, prog, sim.WithStallAttribution())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	var ck *sim.Checkpoint
	s, err := sim.New(cfg, prog, sim.WithStallAttribution(),
		sim.WithCheckpointEvery(ludPinnedCycle, func(c *sim.Checkpoint) error {
			if ck == nil {
				ck = c
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Cycle != ludPinnedCycle {
		t.Fatalf("no checkpoint at cycle %d", ludPinnedCycle)
	}
	halted := 0
	for _, th := range ck.Threads {
		if th.Halted {
			halted++
		}
	}
	if halted < 200 || len(ck.PendingSpawns) == 0 {
		t.Fatalf("checkpoint has %d halted threads and %d pending spawns; want >= 200 and >= 1", halted, len(ck.PendingSpawns))
	}
	data := marshal(ck)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != ludPinnedDigest {
		t.Errorf("checkpoint digest %s, want %s", got, ludPinnedDigest)
	}

	var loaded sim.Checkpoint
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	r, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(&loaded); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if jw, jg := marshal(want), marshal(got); string(jw) != string(jg) {
		t.Fatalf("resumed run differs from the uninterrupted run:\nwant %s\ngot  %s", jw, jg)
	}
}
