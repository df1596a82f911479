package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/machine"
	"pcoup/internal/parexec"
)

// Table2Row is one row of Table 2: baseline cycle counts and FPU/IU
// utilization for a benchmark under one machine mode.
type Table2Row struct {
	Bench    string
	Mode     Mode
	Cycles   int64
	VsCouple float64 // cycle count relative to Coupled mode
	FPU      float64 // average FP operations per cycle
	IU       float64 // average integer operations per cycle
	MEM      float64
	BR       float64
}

// Table2 reproduces Table 2 (and the data behind Figure 4): cycle counts
// for each benchmark under SEQ, STS, TPE, Coupled, and Ideal on the
// baseline machine.
func Table2(cfg *machine.Config) ([]Table2Row, error) {
	return Table2Ctx(context.Background(), cfg)
}

// Table2Ctx is Table2 under a cancellation context.
func Table2Ctx(ctx context.Context, cfg *machine.Config) ([]Table2Row, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	cells := benchModeCells([]Mode{SEQ, STS, TPE, COUPLED, IDEAL})
	runs := make([]*Run, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		r, err := ExecuteCtx(ctx, cells[i].bench, cells[i].mode, cfg)
		runs[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	coupled := map[string]int64{}
	for i, c := range cells {
		if c.mode == COUPLED {
			coupled[c.bench] = runs[i].Cycles
		}
	}
	rows := make([]Table2Row, len(cells))
	for i, c := range cells {
		r := runs[i]
		rows[i] = Table2Row{
			Bench: c.bench, Mode: c.mode, Cycles: r.Cycles,
			VsCouple: float64(r.Cycles) / float64(coupled[c.bench]),
			FPU:      r.Utilization(machine.FPU), IU: r.Utilization(machine.IU),
			MEM: r.Utilization(machine.MEM), BR: r.Utilization(machine.BR),
		}
	}
	return rows, nil
}

// WriteTable2 prints the rows in the paper's layout.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: cycle count comparison of machine organizations (baseline machine)\n")
	fmt.Fprintf(w, "%-10s %-8s %9s %11s %7s %7s\n", "Benchmark", "Mode", "#Cycles", "vs Coupled", "FPU", "IU")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %9d %11.2f %7.2f %7.2f\n",
			r.Bench, r.Mode, r.Cycles, r.VsCouple, r.FPU, r.IU)
	}
}

// WriteFigure4 renders the same data as a textual bar chart (the paper's
// Figure 4 is a bar chart of Table 2's cycle counts).
func WriteFigure4(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Figure 4: baseline cycle counts by mode (bars normalized per benchmark)\n")
	maxByBench := map[string]int64{}
	for _, r := range rows {
		if r.Cycles > maxByBench[r.Bench] {
			maxByBench[r.Bench] = r.Cycles
		}
	}
	cur := ""
	for _, r := range rows {
		if r.Bench != cur {
			cur = r.Bench
			fmt.Fprintf(w, "%s:\n", cur)
		}
		width := int(float64(r.Cycles) / float64(maxByBench[r.Bench]) * 50)
		if width < 1 {
			width = 1
		}
		fmt.Fprintf(w, "  %-8s %9d |%s\n", r.Mode, r.Cycles, bar(width))
	}
}

func bar(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
