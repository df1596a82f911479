package service

import (
	"container/list"
	"sync"

	"pcoup/internal/compiler"
	"pcoup/internal/isa"
)

// compileTableSize bounds the compile table. Its hits happen inside one
// request — a backend's validation, then its worker's execution, and
// where a gateway shares the process, the gateway's validation first —
// so it only has to hold the programs in flight; repeats across
// requests are the result cache's job. A 256-entry table bought no
// latency on the service-mix benchmark and held more programs resident.
const compileTableSize = 16

// compileKey content-addresses one compile: the canonical source hash
// (formatting and comments do not split entries), the machine hash and
// the compiler options.
type compileKey struct {
	source  string
	machine string
	opts    compiler.Options
}

type compileEntry struct {
	key  compileKey
	prog *isa.Program
}

// compileTable is a process-wide LRU of compiled programs, so a program
// compiles once in each process that sees it however many layers
// validate or run it. Sharing a program is safe for the reason the
// experiments program cache gives: the simulator treats an isa.Program
// as read-only. Only successful compiles are stored: an error carries
// the line:col of the text it was found in, which a reformatted twin
// with the same key does not share, and a deadline error depends on
// timing. A miss recompiles; it never answers wrongly.
type compileTable struct {
	mu      sync.Mutex
	entries map[compileKey]*list.Element
	ll      *list.List // front = most recently used
	max     int
	lookups int64
	fills   int64
}

func newCompileTable(max int) *compileTable {
	return &compileTable{entries: map[compileKey]*list.Element{}, ll: list.New(), max: max}
}

// programs is the process's compile table.
var programs = newCompileTable(compileTableSize)

// CompileTableStats reports the process-wide compile table's traffic:
// lookups, and fills — the compiles run on a miss, failed ones
// included — so lookups-fills is the number of compiles saved.
func CompileTableStats() (lookups, fills int64) {
	return programs.stats()
}

// compile returns the program stored under k, or runs build outside the
// lock and stores its result if it succeeds. Two concurrent misses on
// one key may both build; the first store stays, and both programs are
// correct.
func (t *compileTable) compile(k compileKey, build func() (*isa.Program, error)) (*isa.Program, error) {
	t.mu.Lock()
	t.lookups++
	if el, ok := t.entries[k]; ok {
		t.ll.MoveToFront(el)
		prog := el.Value.(*compileEntry).prog
		t.mu.Unlock()
		return prog, nil
	}
	t.fills++
	t.mu.Unlock()

	prog, err := build()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[k]; !ok {
		t.entries[k] = t.ll.PushFront(&compileEntry{key: k, prog: prog})
		for t.ll.Len() > t.max {
			el := t.ll.Back()
			t.ll.Remove(el)
			delete(t.entries, el.Value.(*compileEntry).key)
		}
	}
	return prog, nil
}

func (t *compileTable) stats() (lookups, fills int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookups, t.fills
}
