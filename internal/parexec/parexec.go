// Package parexec is the shared parallel cell-execution engine: every
// sweep in the tree — the experiment drivers, pcserved sweep jobs, the
// progfuzz differential corpus, pcbench — executes its independent,
// deterministic cells through this package's bounded worker pool.
//
// The engine's contract is byte-identity with sequential execution:
//
//   - Stream fans cells out by index and delivers their results to emit
//     strictly in submission order from the calling goroutine, so
//     streaming consumers (NDJSON sweeps, result caches with LRU order)
//     observe exactly the sequence sequential execution would have
//     produced. A cancelled or failed stream emits a contiguous prefix
//     of that sequence and nothing else, and returns the error of the
//     lowest-index failing cell — the error sequential execution would
//     have hit, not whichever failure happened to finish first.
//   - Run is Stream with nothing to emit: callers write results into an
//     index-addressed slice, so row order never depends on completion
//     order.
//
// There is one pool for every width; width 1 runs it with one worker.
// The width comes from the context (WithLimit — pcbench -j, pcserved's
// -sweep-parallelism), else GOMAXPROCS. A shared Limiter (WithLimiter)
// additionally bounds in-flight cells across concurrent sweeps, so a
// daemon running many sweep jobs under its own worker pool keeps a
// global cap on simulation concurrency instead of multiplying the two
// pools.
package parexec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

type limitKey struct{}
type limiterKey struct{}

// WithLimit returns a context carrying an explicit parallelism width
// for Run/Stream calls beneath it. n <= 0 removes the override
// (GOMAXPROCS applies again).
func WithLimit(ctx context.Context, n int) context.Context {
	if n <= 0 {
		n = 0
	}
	return context.WithValue(ctx, limitKey{}, n)
}

// limitFrom resolves the effective parallelism for a call under ctx:
// the context's explicit width if set, else GOMAXPROCS.
func limitFrom(ctx context.Context) int {
	if v, ok := ctx.Value(limitKey{}).(int); ok && v > 0 {
		return v
	}
	return runtime.GOMAXPROCS(0)
}

// Limiter is a counting semaphore bounding in-flight cells across
// many concurrent Run/Stream calls. A nil *Limiter never blocks.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter builds a Limiter admitting up to capacity concurrent
// cells (capacity < 1 is clamped to 1).
func NewLimiter(capacity int) *Limiter {
	if capacity < 1 {
		capacity = 1
	}
	return &Limiter{sem: make(chan struct{}, capacity)}
}

// acquire admits one cell: it fails with ctx's error if ctx is
// cancelled before the token is taken or by the time it is, so no cell
// ever starts under a cancelled context (a select with both cases
// ready picks at random).
func (l *Limiter) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil || l == nil {
		return err
	}
	select {
	case l.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			<-l.sem
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *Limiter) release() {
	if l != nil {
		<-l.sem
	}
}

// WithLimiter returns a context whose Run/Stream calls additionally
// acquire a token from lim around every cell. The service layer shares
// one limiter across all jobs so intra-job parallelism composes fairly
// with the job worker pool.
func WithLimiter(ctx context.Context, lim *Limiter) context.Context {
	return context.WithValue(ctx, limiterKey{}, lim)
}

func limiterFrom(ctx context.Context) *Limiter {
	lim, _ := ctx.Value(limiterKey{}).(*Limiter)
	return lim
}

// Run executes fn(i) for every i in [0, n) through Stream with nothing
// to emit. Cells must be independent; callers record results by index
// so output order is completion-order-free. The first failure stops
// dispatch (cells already running finish) and the lowest-index failure
// is returned; if no cell failed and ctx was cancelled, ctx.Err() is.
func Run(ctx context.Context, n int, fn func(i int) error) error {
	return Stream(ctx, n,
		func(_ context.Context, i int) (struct{}, error) { return struct{}{}, fn(i) },
		func(int, struct{}) error { return nil })
}

// streamResult carries one cell's outcome to the merging coordinator.
type streamResult[T any] struct {
	i   int
	v   T
	err error
}

// Stream executes run(ctx, i) for every i in [0, n) over a pool of
// limitFrom(ctx) workers (never more than n) and delivers results to
// emit strictly in index order, from the calling goroutine. The emitted
// sequence is byte-identical to sequential execution: on the first
// error (a cell's, or emit's own), exactly the cells before the failing
// index have been emitted, and that error is returned after in-flight
// cells drain. Cancellation likewise yields a contiguous prefix and
// ctx.Err().
func Stream[T any](ctx context.Context, n int, run func(ctx context.Context, i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := min(limitFrom(ctx), n)
	lim := limiterFrom(ctx)

	// Workers claim indices in order from a shared counter, so once any
	// index is claimed every lower one already is. A failing worker
	// stops further claims itself; the coordinator stops them when emit
	// fails.
	var (
		wg      sync.WaitGroup
		claimed atomic.Int64
		stopped atomic.Bool
	)
	results := make(chan streamResult[T], workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(claimed.Add(1) - 1)
				if i >= n {
					return
				}
				r := streamResult[T]{i: i}
				if r.err = lim.acquire(ctx); r.err == nil {
					r.v, r.err = run(ctx, i)
					lim.release()
				}
				if r.err != nil {
					stopped.Store(true)
				}
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Ordered merge: buffer out-of-order completions, emit the
	// contiguous prefix. Every index below a failure was claimed before
	// it, so the frontier still reaches the lowest-index failure, which
	// stops emission; later-index results drain unemitted, exactly as
	// sequential execution would never have run them.
	pending := make(map[int]streamResult[T])
	nextEmit := 0
	var streamErr error
	for r := range results {
		pending[r.i] = r
		for streamErr == nil {
			pr, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			if pr.err != nil {
				streamErr = pr.err
				break
			}
			if err := emit(pr.i, pr.v); err != nil {
				streamErr = err
				stopped.Store(true)
				break
			}
			nextEmit++
		}
	}
	if streamErr != nil {
		return streamErr
	}
	return ctx.Err()
}
