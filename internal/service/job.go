package service

import (
	"fmt"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
)

// CellSpec selects a single (benchmark, mode) simulation.
type CellSpec struct {
	Bench string `json:"bench"`
	Mode  string `json:"mode"`
}

// SweepSpec selects a function-unit mix sweep (the paper's Figure 8
// geometry, parameterized): every (bench, nIU, nFPU) cell in the given
// ranges runs on machine.Mix(nIU, nFPU). Cells stream as they finish and
// are cached individually.
type SweepSpec struct {
	// Benches defaults to the full suite.
	Benches []string `json:"benches,omitempty"`
	// Mode defaults to Coupled.
	Mode  string `json:"mode,omitempty"`
	MinIU int    `json:"min_iu"`
	MaxIU int    `json:"max_iu"`
	// MinFPU/MaxFPU default to the IU range when zero.
	MinFPU int `json:"min_fpu,omitempty"`
	MaxFPU int `json:"max_fpu,omitempty"`
}

// maxSweepCells bounds a single sweep job's size (the API is
// network-facing; a runaway spec must not pin the pool forever).
const maxSweepCells = 1024

// JobSpec is the POST /v1/jobs request body. Exactly one of Experiment,
// Cell, or Sweep selects the work; Machine (inline) or Preset (by name)
// selects the machine configuration, defaulting to the paper's baseline.
type JobSpec struct {
	// Experiment names a registry experiment (see pcbench -exp).
	Experiment string `json:"experiment,omitempty"`
	// Cell runs a single benchmark x mode simulation.
	Cell *CellSpec `json:"cell,omitempty"`
	// Sweep runs a unit-mix sweep with per-cell streaming and caching.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Program compiles and simulates an untrusted source program under
	// the service resource limits (also reachable via POST /v1/programs).
	Program *ProgramSpec `json:"program,omitempty"`

	// Machine is an inline machine configuration; it is validated before
	// the job is accepted.
	Machine *machine.Config `json:"machine,omitempty"`
	// Preset names a configuration registered with the daemon
	// ("baseline" is always available; -presets adds a directory of
	// config files by file stem).
	Preset string `json:"preset,omitempty"`

	// Options are the simulation knobs that also key the result cache.
	Options SimOptions `json:"options,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution (0: server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Normalize validates the spec against the experiment registry, the
// benchmark suite, and the preset table, and fills defaults. It returns
// the resolved machine config (nil meaning "driver default"). It is the
// one validation both pcserved and pcfleet apply. A preset mapped to a
// nil config is known by name only (the gateway's -preset-names: the
// backends hold the machine), so the machine-dependent check — the
// program's bounded compile — is left to the backend that resolves it.
func (spec *JobSpec) Normalize(presets map[string]*machine.Config) (*machine.Config, error) {
	selected := 0
	if spec.Experiment != "" {
		selected++
	}
	if spec.Cell != nil {
		selected++
	}
	if spec.Sweep != nil {
		selected++
	}
	if spec.Program != nil {
		selected++
	}
	if selected != 1 {
		return nil, fmt.Errorf("spec must set exactly one of experiment, cell, sweep, program (got %d)", selected)
	}
	if spec.Machine != nil && spec.Preset != "" {
		return nil, fmt.Errorf("spec sets both machine and preset")
	}
	if spec.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms: must be >= 0")
	}
	if spec.Options.MaxCycles < 0 {
		return nil, fmt.Errorf("options.max_cycles: must be >= 0")
	}

	var cfg *machine.Config
	switch {
	case spec.Machine != nil:
		if err := spec.Machine.Validate(); err != nil {
			return nil, err
		}
		cfg = spec.Machine
	case spec.Preset != "":
		p, ok := presets[spec.Preset]
		if !ok {
			return nil, fmt.Errorf("unknown preset %q (valid: %s)", spec.Preset, presetNames(presets))
		}
		cfg = p
	}

	switch {
	case spec.Experiment != "":
		if _, ok := experiments.Lookup(spec.Experiment); !ok {
			return nil, experiments.UnknownExperimentError(spec.Experiment)
		}
		if spec.Options.Trace {
			return nil, fmt.Errorf("options.trace applies to cell jobs only")
		}
	case spec.Cell != nil:
		mode, err := experiments.ParseMode(spec.Cell.Mode)
		if err != nil {
			return nil, err
		}
		spec.Cell.Mode = string(mode)
		if _, err := bench.Get(spec.Cell.Bench, bench.Sequential); err != nil {
			return nil, err
		}
		if !experiments.ModeSupported(spec.Cell.Bench, mode) {
			return nil, fmt.Errorf("benchmark %q has no %s variant", spec.Cell.Bench, mode)
		}
	case spec.Sweep != nil:
		if err := spec.Sweep.Normalize(); err != nil {
			return nil, err
		}
		if spec.Machine != nil || spec.Preset != "" {
			return nil, fmt.Errorf("sweep jobs build their own machines (machine/preset must be unset)")
		}
		if spec.Options.Trace {
			return nil, fmt.Errorf("options.trace applies to cell jobs only")
		}
	case spec.Program != nil:
		if spec.Options.Trace {
			return nil, fmt.Errorf("options.trace applies to cell jobs only")
		}
		if err := spec.Program.normalize(); err != nil {
			return nil, err
		}
		// Validate by compiling under the service limits against the
		// resolved machine: a recursion bomb, an over-cap source, or a
		// thread explosion is rejected here with a typed ProgramError
		// (HTTP 422) instead of ever reaching a worker.
		if spec.Preset == "" || cfg != nil {
			if err := spec.Program.compiles(cfg); err != nil {
				return nil, err
			}
		}
	}
	return cfg, nil
}

// Normalize fills sweep defaults and bounds the geometry. The fleet
// gateway applies the same normalization before splitting a sweep, so
// its merged payload embeds a spec byte-identical to a single backend's.
func (sw *SweepSpec) Normalize() error {
	if len(sw.Benches) == 0 {
		sw.Benches = bench.Names()
	}
	for _, b := range sw.Benches {
		if _, err := bench.Get(b, bench.Sequential); err != nil {
			return err
		}
	}
	if sw.Mode == "" {
		sw.Mode = string(experiments.COUPLED)
	}
	mode, err := experiments.ParseMode(sw.Mode)
	if err != nil {
		return err
	}
	sw.Mode = string(mode)
	if sw.MinFPU == 0 && sw.MaxFPU == 0 {
		sw.MinFPU, sw.MaxFPU = sw.MinIU, sw.MaxIU
	}
	for _, b := range [...]struct {
		name     string
		min, max int
	}{{"iu", sw.MinIU, sw.MaxIU}, {"fpu", sw.MinFPU, sw.MaxFPU}} {
		if b.min < 1 || b.max < b.min {
			return fmt.Errorf("sweep: %s range [%d,%d] invalid (need 1 <= min <= max)", b.name, b.min, b.max)
		}
		// Mix spreads units over max(nIU, nFPU) clusters plus a branch
		// cluster; keep within the machine package's cluster bound.
		if b.max >= machine.MaxClusters {
			return fmt.Errorf("sweep: %s max %d too large (max %d)", b.name, b.max, machine.MaxClusters-1)
		}
	}
	if n := len(sw.Benches) * (sw.MaxIU - sw.MinIU + 1) * (sw.MaxFPU - sw.MinFPU + 1); n > maxSweepCells {
		return fmt.Errorf("sweep: %d cells exceeds the %d-cell limit", n, maxSweepCells)
	}
	return nil
}

// Cells enumerates the sweep's (bench, iu, fpu) grid in a stable order —
// the order cells stream, merge, and key the sweep payload. Call
// Normalize first.
func (sw *SweepSpec) Cells() []SweepCell {
	var out []SweepCell
	for _, b := range sw.Benches {
		for iu := sw.MinIU; iu <= sw.MaxIU; iu++ {
			for fpu := sw.MinFPU; fpu <= sw.MaxFPU; fpu++ {
				out = append(out, SweepCell{Bench: b, IU: iu, FPU: fpu})
			}
		}
	}
	return out
}

// SweepCell is one (benchmark, unit mix) coordinate of a sweep grid.
type SweepCell struct {
	Bench string
	IU    int
	FPU   int
}

// SingleCellSweep returns the sweep spec that runs exactly cell c — the
// unit the fleet gateway scatters. Its per-cell payload (and cell cache
// key) is identical to the same cell inside any larger sweep.
func (sw *SweepSpec) SingleCellSweep(c SweepCell) *SweepSpec {
	return &SweepSpec{
		Benches: []string{c.Bench},
		Mode:    sw.Mode,
		MinIU:   c.IU, MaxIU: c.IU,
		MinFPU: c.FPU, MaxFPU: c.FPU,
	}
}

func presetNames(presets map[string]*machine.Config) string {
	names := sortedKeys(presets)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
