package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/compiler"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// UnrollRow is one point of the automatic-unrolling extension: cycle
// counts with and without compiler loop unrolling for one benchmark and
// mode. The paper's compiler required hand unrolling and argues that
// "using more sophisticated scheduling techniques should benefit
// processor coupling at least as much [as] other machine organizations"
// — this experiment tests that claim.
type UnrollRow struct {
	Bench    string
	Mode     Mode
	Baseline int64 // hand-written loops only
	Unrolled int64 // automatic unrolling of constant-trip loops
	Gain     float64
}

// executeWith runs one cell with explicit compiler options.
func executeWith(ctx context.Context, benchName string, mode Mode, cfg *machine.Config, opts compiler.Options) (int64, error) {
	b, prog, _, err := compileCached(benchName, sourceKind(mode), 0, cfg, opts)
	if err != nil {
		return 0, err
	}
	s, err := sim.New(cfg, prog, sim.WithContext(ctx))
	if err != nil {
		return 0, err
	}
	res, err := s.Run(0)
	if err != nil {
		return 0, err
	}
	if err := b.Verify(peeker(s, prog)); err != nil {
		return 0, fmt.Errorf("%s/%s: wrong result: %w", benchName, mode, err)
	}
	s.Release()
	return res.Cycles, nil
}

// Unrolling measures the effect of automatic loop unrolling (up to 32
// expanded iterations per loop) on STS and Coupled execution.
func Unrolling(cfg *machine.Config) ([]UnrollRow, error) {
	return UnrollingCtx(context.Background(), cfg)
}

// UnrollingCtx is Unrolling under a cancellation context.
func UnrollingCtx(ctx context.Context, cfg *machine.Config) ([]UnrollRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	type ucell struct {
		bench  string
		mode   Mode
		unroll int
	}
	var cells []ucell
	for _, b := range []string{"matrix", "fft", "model"} {
		for _, m := range []Mode{STS, COUPLED} {
			cells = append(cells, ucell{b, m, 0}, ucell{b, m, 32})
		}
	}
	cycles := make([]int64, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		opts := compiler.Options{Mode: compilerMode(c.mode), AutoUnroll: c.unroll}
		n, err := executeWith(ctx, c.bench, c.mode, cfg, opts)
		cycles[i] = n
		return err
	})
	if err != nil {
		return nil, err
	}
	var rows []UnrollRow
	for i := 0; i < len(cells); i += 2 {
		rows = append(rows, UnrollRow{
			Bench: cells[i].bench, Mode: cells[i].mode,
			Baseline: cycles[i], Unrolled: cycles[i+1],
			Gain: float64(cycles[i]) / float64(cycles[i+1]),
		})
	}
	return rows, nil
}

// WriteUnrolling prints the unrolling extension results.
func WriteUnrolling(w io.Writer, rows []UnrollRow) {
	fmt.Fprintf(w, "Automatic loop unrolling (extension; paper compiled rolled loops only)\n")
	fmt.Fprintf(w, "%-10s %-8s %10s %10s %7s\n", "Benchmark", "Mode", "rolled", "unrolled", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %10d %10d %7.2f\n", r.Bench, r.Mode, r.Baseline, r.Unrolled, r.Gain)
	}
}

// ThreadCapRow is one point of the active-thread-limit sweep: coupled
// cycle count with the hardware's thread set bounded.
type ThreadCapRow struct {
	Bench  string
	Cap    int
	Cycles int64
}

// ThreadCap sweeps the active-thread limit for coupled execution under
// the long-latency Mem1 memory model — how many resident threads does
// latency hiding actually need?
func ThreadCap(cfg *machine.Config) ([]ThreadCapRow, error) {
	return ThreadCapCtx(context.Background(), cfg)
}

// ThreadCapCtx is ThreadCap under a cancellation context.
func ThreadCapCtx(ctx context.Context, cfg *machine.Config) ([]ThreadCapRow, error) {
	if cfg == nil {
		cfg = machine.Baseline().WithMemory(machine.Mem1).WithSeed(17)
	}
	caps := []int{2, 4, 8, 16, 64}
	type tcell struct {
		bench string
		cap   int
	}
	var cells []tcell
	for _, b := range []string{"matrix", "fft", "model"} {
		for _, c := range caps {
			cells = append(cells, tcell{b, c})
		}
	}
	rows := make([]ThreadCapRow, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		cc := cfg.Clone()
		cc.MaxThreads = c.cap
		r, err := ExecuteCtx(ctx, c.bench, COUPLED, cc)
		if err != nil {
			return fmt.Errorf("threadcap %s/%d: %w", c.bench, c.cap, err)
		}
		rows[i] = ThreadCapRow{Bench: c.bench, Cap: c.cap, Cycles: r.Cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteThreadCap prints the thread-limit sweep.
func WriteThreadCap(w io.Writer, rows []ThreadCapRow) {
	fmt.Fprintf(w, "Active-thread limit sweep (extension; coupled mode, Mem1 latencies)\n")
	fmt.Fprintf(w, "%-10s %6s %10s\n", "Benchmark", "Cap", "Cycles")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %10d\n", r.Bench, r.Cap, r.Cycles)
	}
}
