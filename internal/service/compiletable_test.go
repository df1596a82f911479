package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcoup/internal/isa"
)

// programSeq numbers namedProgram's programs across the process.
var programSeq atomic.Int64

// namedProgram is testProgram under a fresh program name: a distinct
// canonical source, so a test's compile-table counts are not served by
// an entry an earlier test (or an earlier -count run) left behind.
func namedProgram(name string) string {
	return strings.Replace(testProgram, "(program smoke", fmt.Sprintf("(program %s%d", name, programSeq.Add(1)), 1)
}

// tableDelta returns the compile-table traffic since (lookups, fills).
func tableDelta(lookups, fills int64) (int64, int64) {
	l, f := CompileTableStats()
	return l - lookups, f - fills
}

// len returns the number of resident programs.
func (t *compileTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// TestCompileTableEvictsLRU pins the table's bound: past
// compileTableSize entries the least recently used program goes, a
// recently used one stays, and the process-wide table never holds more.
func TestCompileTableEvictsLRU(t *testing.T) {
	tab := newCompileTable(compileTableSize)
	key := func(i int) compileKey { return compileKey{source: fmt.Sprint(i)} }
	built := map[int]int{}
	get := func(i int) {
		t.Helper()
		prog, err := tab.compile(key(i), func() (*isa.Program, error) {
			built[i]++
			return &isa.Program{Name: fmt.Sprint(i)}, nil
		})
		if err != nil || prog.Name != fmt.Sprint(i) {
			t.Fatalf("compile(%d) = %v, %v", i, prog, err)
		}
	}
	for i := 0; i < compileTableSize; i++ {
		get(i)
	}
	get(0)                // 0 becomes most recent; 1 is now the LRU entry
	get(compileTableSize) // one past the bound evicts 1
	if n := tab.len(); n != compileTableSize {
		t.Fatalf("table holds %d programs, want %d", n, compileTableSize)
	}
	get(0)
	get(1)
	if built[0] != 1 || built[1] != 2 {
		t.Fatalf("builds: program 0 %d (want 1, stayed resident), program 1 %d (want 2, evicted)", built[0], built[1])
	}
	if lookups, fills := tab.stats(); lookups != compileTableSize+4 || fills != compileTableSize+2 {
		t.Fatalf("stats = %d lookups, %d fills; want %d, %d", lookups, fills, compileTableSize+4, compileTableSize+2)
	}

	for i := 0; i < compileTableSize+4; i++ {
		p := &ProgramSpec{Source: namedProgram(fmt.Sprintf("evict%d", i))}
		if err := p.normalize(); err != nil {
			t.Fatal(err)
		}
		if err := p.compiles(nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := programs.len(); n != compileTableSize {
		t.Fatalf("process table holds %d programs, want %d", n, compileTableSize)
	}
}

// TestSingleDaemonResubmissionCompilesZero: a cold program compiles
// once (validation fills the table, the worker hits it), and a
// reformatted resubmission compiles zero times: its validation is a
// table hit and the worker serves it from the result cache. /metrics
// reports the same counts.
func TestSingleDaemonResubmissionCompilesZero(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	src := namedProgram("resubmitzero")

	l0, f0 := CompileTableStats()
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: src}})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if final := waitJob(t, ts, view.ID); final.State != JobDone || final.CacheHit {
		t.Fatalf("cold: state %s (%s) hit=%v, want done, no hit", final.State, final.Error, final.CacheHit)
	}
	if lookups, fills := tableDelta(l0, f0); lookups != 2 || fills != 1 {
		t.Fatalf("cold program: %d lookups, %d compiles; want 2 lookups (validate, run), 1 compile", lookups, fills)
	}

	l1, f1 := CompileTableStats()
	reformatted := "; resubmission\n" + strings.ReplaceAll(src, "\n", "\n   ")
	status, view = postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: reformatted}})
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	if final := waitJob(t, ts, view.ID); final.State != JobDone || !final.CacheHit {
		t.Fatalf("resubmit: state %s hit=%v, want done hit=true", final.State, final.CacheHit)
	}
	if lookups, fills := tableDelta(l1, f1); lookups != 1 || fills != 0 {
		t.Fatalf("resubmission: %d lookups, %d compiles; want 1 lookup (validate), 0 compiles", lookups, fills)
	}

	lookups, fills := CompileTableStats()
	if got := metricValue(t, ts, "pcserved_program_compiles_total"); got != float64(fills) {
		t.Fatalf("pcserved_program_compiles_total = %v, want %d", got, fills)
	}
	if got := metricValue(t, ts, "pcserved_program_compile_hits_total"); got != float64(lookups-fills) {
		t.Fatalf("pcserved_program_compile_hits_total = %v, want %d", got, lookups-fills)
	}
}

// TestCompileTableErrorsNotCached: a failed compile is not stored, so a
// reformatted twin of a rejected program compiles again and reports its
// own position; and the source bounds run on every submitted text, so a
// padded twin of a cached program is refused even though its canonical
// key is already in both caches.
func TestCompileTableErrorsNotCached(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})

	bad := "(program bad\n  (global out (array int 1))\n  (def (main) (frobnicate out)))"
	l0, f0 := CompileTableStats()
	var pe *ProgramError
	_, err := srv.Submit(JobSpec{Program: &ProgramSpec{Source: bad}})
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "3:15:") {
		t.Fatalf("rejected program: err = %v, want a ProgramError at 3:15", err)
	}
	_, err = srv.Submit(JobSpec{Program: &ProgramSpec{Source: "\n\n   " + bad}})
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "5:15:") {
		t.Fatalf("reformatted twin: err = %v, want a ProgramError at its own 5:15", err)
	}
	if lookups, fills := tableDelta(l0, f0); lookups != 2 || fills != 2 {
		t.Fatalf("two rejected twins: %d lookups, %d compiles; want 2, 2", lookups, fills)
	}

	src := namedProgram("padded")
	status, view := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: src}})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if final := waitJob(t, ts, view.ID); final.State != JobDone {
		t.Fatalf("state %s (%s)", final.State, final.Error)
	}
	padded := src + "\n;" + strings.Repeat("x", 64<<10)
	if status, _ := postProgram(t, ts, ProgramRequest{ProgramSpec: ProgramSpec{Source: padded}}); status != http.StatusUnprocessableEntity {
		t.Fatalf("padded twin over the byte limit: status %d, want 422", status)
	}
}

// TestCompileTableConcurrentClients submits one program from several
// clients at once, each with its own formatting and cycle budget: one
// compile key, distinct result keys, so concurrent simulations share
// one compiled program. Under -race, a simulator write to the shared
// program is a reported race.
func TestCompileTableConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	src := namedProgram("concurrent")
	const clients = 6
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(ProgramRequest{
				ProgramSpec: ProgramSpec{Source: strings.Repeat("\n", i) + src, Verify: true},
				Options:     SimOptions{MaxCycles: int64(1_000_000 + i)},
			})
			resp, err := http.Post(ts.URL+"/v1/programs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var view JobView
			if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&view) != nil {
				t.Errorf("client %d: submit status %d", i, resp.StatusCode)
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var first map[string][]string
	for i, id := range ids {
		final := waitJob(t, ts, id)
		var res ProgramResult
		if final.State != JobDone || json.Unmarshal(final.Result, &res) != nil {
			t.Fatalf("client %d: state %s (%s)", i, final.State, final.Error)
		}
		if i == 0 {
			first = res.Globals
		} else if !reflect.DeepEqual(res.Globals, first) {
			t.Fatalf("client %d globals %v, client 0 %v", i, res.Globals, first)
		}
	}
}
