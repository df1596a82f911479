package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// gate is the benchmark's correctness gate. Every operation a workload
// performs is attempted once; any error, non-2xx response, wrong output
// or simulated statistic differing from its reference counts as failed.
type gate struct {
	attempted atomic.Int64
	failed    atomic.Int64
	// checked/unchecked count operations whose simulated statistics were
	// (or, lacking a reference, were not) compared for identity.
	checked   atomic.Int64
	unchecked atomic.Int64

	mu   sync.Mutex
	errs []string
}

// maxKeptErrors bounds the failure messages kept for the report.
const maxKeptErrors = 8

func (g *gate) ok() { g.attempted.Add(1) }

func (g *gate) fail(format string, args ...any) {
	g.attempted.Add(1)
	g.failed.Add(1)
	g.mu.Lock()
	if len(g.errs) < maxKeptErrors {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// check records one operation: err == nil is a pass.
func (g *gate) check(err error) {
	if err != nil {
		g.fail("%v", err)
		return
	}
	g.ok()
}

func (g *gate) errors() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.errs...)
}

// merge folds o's counts and failures into g.
func (g *gate) merge(o *gate) {
	g.attempted.Add(o.attempted.Load())
	g.failed.Add(o.failed.Load())
	g.checked.Add(o.checked.Load())
	g.unchecked.Add(o.unchecked.Load())
	for _, e := range o.errors() {
		g.mu.Lock()
		if len(g.errs) < maxKeptErrors {
			g.errs = append(g.errs, e)
		}
		g.mu.Unlock()
	}
}

// identity summarises whether simulated statistics were checked against
// recorded references.
func (g *gate) identity() string {
	c, u := g.checked.Load(), g.unchecked.Load()
	switch {
	case u == 0:
		return fmt.Sprintf("checked (%d)", c)
	case c == 0:
		return fmt.Sprintf("unchecked (%d without a reference)", u)
	default:
		return fmt.Sprintf("partial (%d checked, %d without a reference)", c, u)
	}
}
