package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/faults"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/sim"
)

// observedViews runs prog with every observer installed (plus stall
// attribution) and returns each rendered view keyed by name, and the Sim.
func observedViews(t *testing.T, cfg *machine.Config, prog *isa.Program, opts ...sim.Option) (map[string][]byte, *sim.Sim) {
	t.Helper()
	var text bytes.Buffer
	rec := sim.NewInterleaveRecorder(cfg, 2000)
	tl := sim.NewTimeline(cfg, 500)
	tr := sim.NewJSONTracer(cfg)
	opts = append([]sim.Option{
		sim.WithObserver(sim.NewTextTrace(&text)),
		sim.WithObserver(rec),
		sim.WithObserver(tl),
		sim.WithObserver(tr),
		sim.WithStallAttribution(),
	}, opts...)
	s, err := sim.New(cfg, prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	var il, tlOut, js, stalls bytes.Buffer
	rec.Write(&il)
	tl.Write(&tlOut, res.Cycles)
	if err := tr.Write(&js); err != nil {
		t.Fatal(err)
	}
	sim.WriteStallReport(&stalls, cfg, res)
	return map[string][]byte{
		"text trace": text.Bytes(), "interleave": il.Bytes(), "timeline": tlOut.Bytes(),
		"json trace": js.Bytes(), "stall report": stalls.Bytes(),
	}, s
}

// TestObserverViewsKernelIdentical pins the one-observer-path contract:
// every view of a run is byte-identical under the event core and the
// ticking kernel, and installing observers keeps the event core skipping.
func TestObserverViewsKernelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs lud on long-latency memories under both kernels")
	}
	memFaults := faults.Model{Seed: 7, MemDropRate: 0.05, MemDelayRate: 0.05, MemDelayMax: 6}
	cells := []struct {
		name string
		cfg  *machine.Config
	}{
		{"lud@Slow", machine.Baseline().WithMemory(machine.MemSlow)},
		{"lud@Mem2", machine.Baseline().WithMemory(machine.Mem2)},
		{"lud@Mem2+DynAll", machine.Baseline().WithMemory(machine.Mem2).WithDynamic(machine.DynAll)},
		{"lud@Mem2+memfaults", machine.Baseline().WithMemory(machine.Mem2).WithFaults(memFaults)},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg, prog := compileOn(t, c.cfg, "lud", bench.Threaded, compiler.Unrestricted)
			event, s := observedViews(t, cfg, prog)
			ticking, _ := observedViews(t, cfg, prog, sim.WithCycleSkipping(false))
			for view, want := range ticking {
				if got := event[view]; !bytes.Equal(got, want) {
					t.Errorf("%s differs between kernels (event %d bytes, ticking %d bytes)", view, len(got), len(want))
				}
			}
			if s.SkippedCycles() == 0 {
				t.Error("event core skipped no cycles with observers installed")
			}
		})
	}
}

// TestJSONTraceDeterministic runs the same traced program repeatedly: the
// trace files must be byte-identical. Its seven threads end the run with
// open stall spans, several starting on the same cycle, so flushing them
// in map order reordered the output from run to run.
func TestJSONTraceDeterministic(t *testing.T) {
	const src = `
(program clidemo
  (global out (array int 6))
  (def (main)
    (forall-static (i 0 6)
      (aset out i (* i 7)))))`
	cfg := machine.Baseline()
	prog, _, err := compiler.Compile(src, cfg, compiler.Options{Mode: compiler.Unrestricted})
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 8; i++ {
		tr := sim.NewJSONTracer(cfg)
		s, err := sim.New(cfg, prog, sim.WithObserver(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d wrote a different trace than run 0", i)
		}
	}
}

// TestJSONTraceTieOrder feeds the tracer same-timestamp events out of
// track order, some flushed by Finish: Write must order them by
// (ts, pid, tid) whatever order they were recorded in.
func TestJSONTraceTieOrder(t *testing.T) {
	cfg := machine.Baseline()
	tr := sim.NewJSONTracer(cfg)
	op := &isa.Op{Code: isa.OpJmp}
	tr.Issue(3, 2, 0, -1, op)
	tr.Issue(3, 0, 1, -1, op)
	for _, id := range []int{2, 0, 1} {
		tr.Spawn(id, "seg")
		tr.Stall(3, id, sim.CausePresence, 4)
	}
	tr.Finish(6)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph       string
			Ts       int64
			Pid, Tid int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Ts == 3 {
			got = append(got, fmt.Sprintf("%d/%d", ev.Pid, ev.Tid))
		}
	}
	want := "[1/0 1/2 2/0 2/1 2/2]"
	if fmt.Sprint(got) != want {
		t.Errorf("ts=3 spans in (pid/tid) order %v, want %s", got, want)
	}
}
