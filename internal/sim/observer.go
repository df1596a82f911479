package sim

import (
	"fmt"
	"io"

	"pcoup/internal/isa"
)

// Observer receives the kernel's execution events; install one with
// WithObserver. Events are reported only for cycles that do work, and
// the event core reports a jumped range of identical stall
// classifications as one Stall event with k > 1, so observers see the
// same run under either kernel and never disable cycle skipping.
type Observer interface {
	// Issue reports op issued on global unit slot unit; win is its
	// dynamic-window offset, or -1 when the thread has no window.
	Issue(cycle int64, unit, thread, win int, op *isa.Op)
	// Writeback reports a result written into thread's register dst.
	Writeback(cycle int64, thread int, dst isa.RegRef, val isa.Value)
	// Stall reports thread's classification for the k cycles starting
	// at cycle; it flows only while stall attribution is enabled.
	Stall(cycle int64, thread int, cause StallCause, k int64)
	// Spawn reports a new thread running code segment segment.
	Spawn(thread int, segment string)
	// Finish reports the end of the run.
	Finish(cycle int64)
}

// WithObserver installs o; observers compose, each seeing every event in
// installation order. A *JSONTracer also enables stall attribution,
// whose Stall events build its thread tracks.
func WithObserver(o Observer) Option {
	return func(s *Sim) {
		s.obs = append(s.obs, o)
		if _, ok := o.(*JSONTracer); ok {
			s.ensureAttrib()
		}
	}
}

// nopObserver ignores every event; observers embed it and override the
// events they consume.
type nopObserver struct{}

func (nopObserver) Issue(int64, int, int, int, *isa.Op)         {}
func (nopObserver) Writeback(int64, int, isa.RegRef, isa.Value) {}
func (nopObserver) Stall(int64, int, StallCause, int64)         {}
func (nopObserver) Spawn(int, string)                           {}
func (nopObserver) Finish(int64)                                {}

// TextTrace writes one line per issue and writeback (a debugging aid).
type TextTrace struct {
	nopObserver
	w io.Writer
}

// NewTextTrace returns a text trace writing to w.
func NewTextTrace(w io.Writer) *TextTrace { return &TextTrace{w: w} }

// Issue writes an issue line; window issues carry their offset.
func (tt *TextTrace) Issue(cycle int64, unit, thread, win int, op *isa.Op) {
	if win < 0 {
		fmt.Fprintf(tt.w, "[%6d] t%d u%d issue %s\n", cycle, thread, unit, op)
		return
	}
	fmt.Fprintf(tt.w, "[%6d] t%d u%d issue %s (win+%d)\n", cycle, thread, unit, op, win)
}

// Writeback writes a register-write line.
func (tt *TextTrace) Writeback(cycle int64, thread int, dst isa.RegRef, val isa.Value) {
	fmt.Fprintf(tt.w, "[%6d] t%d wb %s = %s\n", cycle, thread, dst, val)
}
