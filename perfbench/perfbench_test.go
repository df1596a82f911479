package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pcoup/internal/progfuzz"
)

// spec is the part of BENCHMARK.json the smoke tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload on tiny inputs and returns the printed table
// and the decoded result line.
func runTiny(t *testing.T, args ...string) (string, report) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "0.3", "--seed", "7",
		"--trace-out", filepath.Join(t.TempDir(), "trace.json")}, args...)
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), rep
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced,
// checking that each declared metric is printed, with its unit and a
// sample count, and that the gate passes.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	if len(s.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark has %d", len(s.PerLayer), len(layerUnits))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace="+trace, func(t *testing.T) {
				text, rep := runTiny(t, "--workload", wl.Name, "--trace", trace)
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("gate: correct=%t attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, text)
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(text, " "+m.Name+" ") || !strings.Contains(text, m.Unit) {
						t.Errorf("metric %s missing from the table", m.Name)
					}
				}
				if trace == "0" {
					for _, m := range want {
						if rep.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.Metrics[m.Name].Value)
						}
					}
				}
				if !strings.Contains(text, `host: {"cpu":`) {
					t.Error("host identity missing")
				}
			})
		}
	}
}

// TestCorruptedReferenceTripsGate changes one recorded cycle count and
// one result digest; both cells must then fail the gate.
func TestCorruptedReferenceTripsGate(t *testing.T) {
	b, err := os.ReadFile(defaultRefsPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	var hit int
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 4 && f[0] == "model/SEQ/base/Min/0/-":
			f[1] += "1" // cycles
		case len(f) == 4 && f[0] == "model/Coupled/base/Min/0/-":
			f[3] = "0" + f[3] // digest
		default:
			continue
		}
		lines[i] = strings.Join(f, " ")
		hit++
	}
	if hit != 2 {
		t.Fatalf("found %d of the 2 cells to corrupt", hit)
	}
	path := filepath.Join(t.TempDir(), "refs.tsv")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	text, rep := runTiny(t, "--workload", "paper-sweep", "--refs", path)
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted references passed the gate\n%s", text)
	}
	for _, key := range []string{"model/SEQ/base/Min/0/-: ", "model/Coupled/base/Min/0/-: result digest"} {
		if !strings.Contains(text, key) {
			t.Errorf("no failure reported for %q\n%s", key, text)
		}
	}
}

// TestUnrecordedCellIsUnchecked runs with an empty reference file: the
// outputs are still verified, and cycle identity reads unchecked.
func TestUnrecordedCellIsUnchecked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "refs.tsv")
	if err := os.WriteFile(path, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	text, rep := runTiny(t, "--workload", "slow-memory", "--refs", path)
	if !rep.Correct || !strings.Contains(text, "cycle-identity=unchecked") {
		t.Fatalf("want a passing run with unchecked identity\n%s", text)
	}
}

// TestWrongProgramResultTripsGate corrupts the reference interpreter's
// answer for one program: the service's (correct) result must then fail.
func TestWrongProgramResultTripsGate(t *testing.T) {
	w, err := newServiceMix(&options{seed: 7, tiny: true, refs: defaultRefsPath()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	sm := w.(*serviceMix)
	sm.progs[0].want = "not-the-reference-digest"
	out, err := sm.measure(300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.gate.failed.Load() == 0 {
		t.Fatal("a wrong program result passed the gate")
	}
	if errs := out.gate.errors(); len(errs) == 0 || !strings.Contains(errs[0], "program 0: globals differ") {
		t.Fatalf("unexpected failures: %v", errs)
	}
}

// TestRefusalMustBeWarranted checks the gate on 422s: refusing a program
// over the service's thread limit passes, refusing an ordinary one fails.
func TestRefusalMustBeWarranted(t *testing.T) {
	over := progfuzz.GenerateOpts(38, progfuzz.GenOptions{MaxArraySize: wideArraySize, WideForall: true})
	if !overLimits(over) {
		t.Fatal("test program is within the service's limits; pick another")
	}
	w := &serviceMix{progs: []*progInput{{src: over, origin: -1}, {src: progfuzz.Generate(1), origin: -1}}}
	g := &gate{}
	w.checkPrograms(g, []progResult{{idx: 0, refused: true}, {idx: 1, refused: true}})
	if g.attempted.Load() != 2 || g.failed.Load() != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", g.attempted.Load(), g.failed.Load())
	}
	if errs := g.errors(); len(errs) != 1 || !strings.Contains(errs[0], "program 1: refused") {
		t.Fatalf("unexpected failures: %v", errs)
	}
}

// TestOverBudgetMustBeWarranted checks the gate on budget_exceeded: it
// is right for a program past the service's cycle budget (program 1214
// of seed 41 runs over 10⁷ cycles), wrong for an ordinary one.
func TestOverBudgetMustBeWarranted(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 10⁷ cycles")
	}
	w := &serviceMix{seed: 41, gen: rand.New(rand.NewSource(41))}
	for len(w.progs) <= 1214 {
		w.nextProgram()
	}
	w.progs = append(w.progs, &progInput{src: progfuzz.Generate(1), origin: -1})
	g := &gate{}
	w.checkPrograms(g, []progResult{{idx: 1214, overBudget: true}, {idx: len(w.progs) - 1, overBudget: true}})
	if g.attempted.Load() != 2 || g.failed.Load() != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", g.attempted.Load(), g.failed.Load())
	}
	if errs := g.errors(); len(errs) != 1 || !strings.Contains(errs[0], "ended budget_exceeded but completes") {
		t.Fatalf("unexpected failures: %v", errs)
	}
}
