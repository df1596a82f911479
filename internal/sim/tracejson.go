package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pcoup/internal/isa"
	"pcoup/internal/machine"
)

// Pseudo-process ids in the emitted trace: one "process" groups the
// function-unit tracks, the other the per-thread stall tracks.
const (
	tracePidUnits   = 1
	tracePidThreads = 2
)

// traceEvent is one record of the Chrome trace-event format ("X"
// complete events and "M" metadata), as consumed by chrome://tracing and
// Perfetto. Timestamps are in microseconds; the tracer maps one
// simulated cycle to one microsecond.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// stallSpan is an open run of identical per-cycle classifications for
// one thread, flushed as a single span when the classification changes.
type stallSpan struct {
	cause StallCause
	start int64
	last  int64
}

// JSONTracer records a machine-readable execution trace in Chrome
// trace-event format: one track per function unit (each issued operation
// is a span of the unit's pipeline occupancy) and one track per thread
// (contiguous spans of the thread's per-cycle stall classification).
// Install it with WithObserver — which also enables stall attribution —
// and call Write after the run.
type JSONTracer struct {
	nopObserver
	units  []machine.UnitRef
	events []traceEvent
	// open holds each thread's current span, indexed by thread id.
	open []*stallSpan
}

// NewJSONTracer prepares a tracer for a machine configuration (the
// configuration provides the unit-track names).
func NewJSONTracer(cfg *machine.Config) *JSONTracer {
	tr := &JSONTracer{units: cfg.Units()}
	tr.meta("process_name", tracePidUnits, 0, map[string]any{"name": "function units"})
	tr.meta("process_name", tracePidThreads, 0, map[string]any{"name": "threads"})
	for _, u := range tr.units {
		tr.meta("thread_name", tracePidUnits, u.Global,
			map[string]any{"name": fmt.Sprintf("u%d %s (cluster %d)", u.Global, u.Kind, u.Cluster)})
	}
	return tr
}

func (tr *JSONTracer) meta(name string, pid, tid int, args map[string]any) {
	tr.events = append(tr.events, traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

// Spawn names a thread's track as the thread spawns.
func (tr *JSONTracer) Spawn(id int, segment string) {
	tr.meta("thread_name", tracePidThreads, id,
		map[string]any{"name": fmt.Sprintf("t%d %s", id, segment)})
}

// Issue records one operation issue on its unit's track. Compute
// operations span their unit's pipeline latency; memory, branch, and
// thread operations span their single issue cycle.
func (tr *JSONTracer) Issue(cycle int64, slot, thread, _ int, op *isa.Op) {
	dur := int64(1)
	if op.Code.Pure() {
		dur = int64(tr.units[slot].Latency)
	}
	tr.events = append(tr.events, traceEvent{
		Name: op.Code.String(), Ph: "X", Ts: cycle, Dur: dur,
		Pid: tracePidUnits, Tid: slot,
		Args: map[string]any{"thread": thread, "op": op.String()},
	})
}

// Stall extends the thread's current classification span over the k
// cycles starting at cycle, or closes it and opens a new one.
func (tr *JSONTracer) Stall(cycle int64, thread int, cause StallCause, k int64) {
	for len(tr.open) <= thread {
		tr.open = append(tr.open, nil)
	}
	sp := tr.open[thread]
	if sp != nil && sp.cause == cause && sp.last == cycle-1 {
		sp.last = cycle + k - 1
		return
	}
	if sp != nil {
		tr.closeSpan(thread, sp)
	}
	tr.open[thread] = &stallSpan{cause: cause, start: cycle, last: cycle + k - 1}
}

func (tr *JSONTracer) closeSpan(thread int, sp *stallSpan) {
	tr.events = append(tr.events, traceEvent{
		Name: sp.cause.String(), Ph: "X", Ts: sp.start, Dur: sp.last - sp.start + 1,
		Pid: tracePidThreads, Tid: thread,
	})
}

// Finish flushes the open spans at the end of the run, in thread order.
func (tr *JSONTracer) Finish(int64) {
	for id, sp := range tr.open {
		if sp != nil {
			tr.closeSpan(id, sp)
		}
	}
	tr.open = nil
}

// Write emits the collected trace as a JSON object with a
// "traceEvents" array, ready for chrome://tracing or Perfetto: metadata
// first in recording order, then spans sorted by (timestamp, pid, tid).
// Each track holds at most one span per timestamp, so the order is total.
func (tr *JSONTracer) Write(w io.Writer) error {
	events := append([]traceEvent(nil), tr.events...)
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
		if ma, mb := a.Ph == "M", b.Ph == "M"; ma || mb {
			return ma && !mb
		}
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		return a.Tid < b.Tid
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
