package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed layer call of a traced run.
type span struct {
	ID     int
	Parent int // 0: root
	Name   string
	Job    string // job, request or cell id the call belongs to
	Start  time.Time
	End    time.Time
	// N is a per-span count (bytes written, allocations, cycles…),
	// meaning fixed by the span name.
	N int64
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer records spans in memory; a nil *tracer records nothing, so
// untraced runs pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; pass the result to end. Safe for concurrent use.
func (t *tracer) begin(name string, parent int, job string) *span {
	if t == nil {
		return nil
	}
	s := &span{Parent: parent, Name: name, Job: job, Start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	return s
}

// end closes s (nil-safe). Safe for concurrent use.
func (t *tracer) end(s *span) { t.endWith(s, "", 0) }

// endWith closes s, recording the job it turned out to concern (when
// job is not "") and its count.
func (t *tracer) endWith(s *span, job string, n int64) {
	if s == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s.End = now
	if job != "" {
		s.Job = job
	}
	s.N = n
	t.mu.Unlock()
}

// id is s's id, 0 for nil.
func (s *span) id() int {
	if s == nil {
		return 0
	}
	return s.ID
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns copies of the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, *s)
		}
	}
	return out
}

// durations returns the durations of the spans called name in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event; the file opens
// in chrome://tracing or Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeFile writes the spans as a Chrome trace-event JSON object;
// metadata carries the host identity. Timestamps are host microseconds
// from the tracer's creation.
func (t *tracer) writeFile(path string, meta any) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(t.t0)) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			PID: 1, TID: s.rootID(t),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "n": s.N},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
		Metadata    any          `json:"metadata"`
	}{events, meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootID follows parents to the outermost span, so each root span and
// its children share one track. Callers hold t.mu.
func (s *span) rootID(t *tracer) int {
	for s.Parent != 0 && s.Parent <= len(t.spans) {
		s = t.spans[s.Parent-1]
	}
	return s.ID
}
