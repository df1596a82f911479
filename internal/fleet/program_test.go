package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"pcoup/internal/service"
)

const fleetTestProgram = `
(program fleetsmoke
  (global a (array int 4) (init 3 1 4 1))
  (global out (array int 1))
  (def (main)
    (set s 0)
    (for (i 0 4) (set s (+ s (aref a i))))
    (aset out 0 s)))`

// postProgram submits a program through the gateway's /v1/programs and
// returns status plus view.
func postProgram(t *testing.T, base string, req service.ProgramRequest) (int, service.JobView) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/programs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view service.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decoding view: %v", err)
		}
	}
	return resp.StatusCode, view
}

// TestProgramThroughGateway routes a program job through a two-backend
// fleet: it must complete, an identical resubmission must be a cache hit
// on the same content-key owner, a recursion bomb must be rejected at
// the gateway with 422, and a budget blowout must surface as
// budget_exceeded (not failed, not retried across backends).
func TestProgramThroughGateway(t *testing.T) {
	b1, _, _ := startBackend(t, service.Options{Workers: 2})
	b2, _, _ := startBackend(t, service.Options{Workers: 2})
	_, gwts := startGateway(t, []string{b1, b2}, nil)

	// Run and verify the result arrives intact through the scatter path.
	status, view := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: fleetTestProgram, Verify: true},
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	final := waitJob(t, gwts.URL, view.ID)
	if final.State != service.JobDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	var res service.ProgramResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Globals["out"]; len(got) != 1 || got[0] != "9" {
		t.Fatalf("out = %v, want [9]", got)
	}

	// Identical resubmission: the content key routes it to the same
	// backend, whose cache serves it (CacheHit through the gateway).
	status, again := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: fleetTestProgram, Verify: true},
	})
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	refinal := waitJob(t, gwts.URL, again.ID)
	if refinal.State != service.JobDone || !refinal.CacheHit {
		t.Fatalf("resubmit: state %s hit=%v, want done hit=true", refinal.State, refinal.CacheHit)
	}
	if string(refinal.Result) != string(final.Result) {
		t.Fatal("cached payload differs through the gateway")
	}

	// A nesting bomb is rejected at the gateway's own validation: 422,
	// and no backend ever sees it.
	status, _ = postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: strings.Repeat("(", 50_000)},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bomb status %d, want 422", status)
	}

	// A budget blowout keeps its distinct terminal state through the
	// gateway and is not retried on the second backend.
	long := `
(program spin
  (global out (array int 1))
  (def (main)
    (set s 0)
    (for (i 0 100000) (set s (+ s i)))
    (aset out 0 s)))`
	status, slow := postProgram(t, gwts.URL, service.ProgramRequest{
		ProgramSpec: service.ProgramSpec{Source: long},
		Options:     service.SimOptions{MaxCycles: 500},
	})
	if status != http.StatusAccepted {
		t.Fatalf("budget submit status %d", status)
	}
	bfinal := waitJob(t, gwts.URL, slow.ID)
	if bfinal.State != service.JobBudgetExceeded {
		t.Fatalf("state %s (%s), want budget_exceeded", bfinal.State, bfinal.Error)
	}
}

// TestProgramCompilesOncePerProcess runs a gateway and two backends in
// one process, so they share the process's compile table: a cold
// program compiles once (the gateway's validation) and the backend's
// validation and execution reuse that compile; a reformatted
// resubmission costs one table hit at the gateway and no backend
// compile, because the owning backend's result cache answers it. The
// gateway's /metrics reports the table's counters.
func TestProgramCompilesOncePerProcess(t *testing.T) {
	b1, _, _ := startBackend(t, service.Options{Workers: 2})
	b2, _, _ := startBackend(t, service.Options{Workers: 2})
	_, gwts := startGateway(t, []string{b1, b2}, nil)
	// A fresh program name per run keeps the cold submission cold
	// under -count: the compile table outlives each test.
	src := strings.Replace(fleetTestProgram, "(program fleetsmoke", fmt.Sprintf("(program compileonce%d", time.Now().UnixNano()), 1)

	run := func(source string) service.JobView {
		t.Helper()
		status, view := postProgram(t, gwts.URL, service.ProgramRequest{ProgramSpec: service.ProgramSpec{Source: source}})
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		final := waitJob(t, gwts.URL, view.ID)
		if final.State != service.JobDone {
			t.Fatalf("state %s (%s)", final.State, final.Error)
		}
		return final
	}

	l0, f0 := service.CompileTableStats()
	cold := run(src)
	l1, f1 := service.CompileTableStats()
	if lookups, fills := l1-l0, f1-f0; lookups != 3 || fills != 1 {
		t.Fatalf("cold program: %d lookups, %d compiles; want 3 lookups (gateway, backend, worker), 1 compile", lookups, fills)
	}
	// The gateway's /metrics reports the same process-wide table.
	if got := metricValue(t, gwts.URL, "pcfleet_program_compiles_total"); got != float64(f1) {
		t.Errorf("pcfleet_program_compiles_total %v, compile table reports %d compiles", got, f1)
	}
	if got := metricValue(t, gwts.URL, "pcfleet_program_compile_hits_total"); got != float64(l1-f1) {
		t.Errorf("pcfleet_program_compile_hits_total %v, compile table reports %d hits", got, l1-f1)
	}

	again := run("; again\n" + strings.ReplaceAll(src, "\n", "\n\t"))
	l2, f2 := service.CompileTableStats()
	if lookups, fills := l2-l1, f2-f1; lookups != 1 || fills != 0 {
		t.Fatalf("resubmission: %d lookups, %d compiles; want the gateway's 1 lookup, 0 compiles", lookups, fills)
	}
	if !again.CacheHit || string(again.Result) != string(cold.Result) {
		t.Fatalf("resubmission: hit=%v, payload equal=%v; want a byte-identical cache hit", again.CacheHit, string(again.Result) == string(cold.Result))
	}
}
