package experiments

import (
	"context"
	"fmt"
	"io"

	"pcoup/internal/faults"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// DegradationRow is one point of the fault-degradation sweep: a benchmark
// on one machine configuration under one fault intensity, with the
// slowdown relative to the fault-free run of the same cell and the fault
// events the injector actually delivered.
type DegradationRow struct {
	Config string
	Bench  string
	// Rate is the sweep's base fault rate; the injector's individual
	// rates are derived from it (see degradationModel).
	Rate   float64
	Cycles int64
	// Slowdown is Cycles relative to the Rate == 0 run of the same
	// (Config, Bench) cell.
	Slowdown float64
	// Faults reports what the injector delivered and what recovery did
	// (zero-valued for the fault-free baseline).
	Faults sim.FaultStats
}

// degradationRates are the swept base fault rates. Zero is the baseline
// every other point is normalized against.
var degradationRates = []float64{0, 0.001, 0.005, 0.02}

// degradationSeed fixes the injector's random streams so the sweep is
// exactly reproducible.
const degradationSeed = 17

// degradationModel derives a full fault model from one base rate: memory
// wakeups are dropped and delayed at the base rate, function units and
// writeback ports suffer short outage windows at half of it.
func degradationModel(rate float64) faults.Model {
	if rate == 0 {
		return faults.Model{}
	}
	return faults.Model{
		Seed:        degradationSeed,
		MemDropRate: rate, MemDelayRate: rate, MemDelayMax: 8,
		UnitOutageRate: rate / 2, UnitOutageCycles: 4,
		PortOutageRate: rate / 2, PortOutageCycles: 2,
	}
}

// degradationConfigs returns the machine configurations the sweep
// contrasts: the base machine and the same machine behind a shared
// writeback bus, whose single arbitration point amplifies port outages.
func degradationConfigs(cfg *machine.Config) []struct {
	name string
	cfg  *machine.Config
} {
	return []struct {
		name string
		cfg  *machine.Config
	}{
		{cfg.Interconnect.String(), cfg},
		{machine.SharedBus.String(), cfg.WithInterconnect(machine.SharedBus)},
	}
}

// Degradation sweeps fault intensity against slowdown on the coupled
// machine. Every run still verifies its computed results: injected
// faults (lost and delayed wakeups, unit and port outages) cost cycles
// but — with the forward-progress watchdog recovering lost wakeups —
// never correctness.
func Degradation(cfg *machine.Config) ([]DegradationRow, error) {
	return DegradationCtx(context.Background(), cfg)
}

// DegradationCtx is Degradation under a cancellation context.
func DegradationCtx(ctx context.Context, cfg *machine.Config) ([]DegradationRow, error) {
	if cfg == nil {
		cfg = machine.Baseline()
	}
	if cfg.Interconnect == machine.SharedBus {
		// The contrast configuration must differ from the base.
		cfg = cfg.WithInterconnect(machine.Full)
	}
	type dcell struct {
		config string
		bench  string
		rate   float64
		cfg    *machine.Config
	}
	var cells []dcell
	for _, cc := range degradationConfigs(cfg) {
		for _, b := range []string{"matrix", "fft", "model", "lud"} {
			for _, rate := range degradationRates {
				cells = append(cells, dcell{cc.name, b, rate, cc.cfg.WithFaults(degradationModel(rate))})
			}
		}
	}
	rows := make([]DegradationRow, len(cells))
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		r, err := ExecuteCtx(ctx, c.bench, COUPLED, c.cfg)
		if err != nil {
			return fmt.Errorf("degradation: %s rate %g: %w", c.config, c.rate, err)
		}
		row := DegradationRow{Config: c.config, Bench: c.bench, Rate: c.rate, Cycles: r.Cycles}
		if r.Result.Faults != nil {
			row.Faults = *r.Result.Faults
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := map[string]int64{}
	for _, r := range rows {
		if r.Rate == 0 {
			base[r.Config+"/"+r.Bench] = r.Cycles
		}
	}
	for i := range rows {
		rows[i].Slowdown = float64(rows[i].Cycles) / float64(base[rows[i].Config+"/"+rows[i].Bench])
	}
	return rows, nil
}

// WriteDegradation prints the sweep: per configuration and benchmark, the
// cycle cost of rising fault intensity, with the injector's event counts
// and the watchdog's recoveries.
func WriteDegradation(w io.Writer, rows []DegradationRow) {
	fmt.Fprintf(w, "Degradation: fault rate vs slowdown (Coupled mode; results verified on every run)\n")
	fmt.Fprintf(w, "%-10s %-10s %7s %9s %9s %8s %8s %8s %8s %8s\n",
		"Config", "Benchmark", "Rate", "#Cycles", "Slowdown",
		"Dropped", "Recov", "Delayed", "UnitOut", "PortRej")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %7.3f %9d %8.2fx %8d %8d %8d %8d %8d\n",
			r.Config, r.Bench, r.Rate, r.Cycles, r.Slowdown,
			r.Faults.MemDropped, r.Faults.WakeupsRecovered, r.Faults.MemDelayed,
			r.Faults.UnitOutages, r.Faults.OutageRejects)
	}
}
