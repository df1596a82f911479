package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pcoup/internal/bench"
	"pcoup/internal/experiments"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sim"
)

// cell is one sweep cell: a benchmark under a machine mode on one
// machine. Machine names a machine of the paper's sweeps ("base", an
// interconnect name such as "Tri-Port", or "mixIF" for I integer and F
// floating-point units); Mem the memory model; CfgSeed the statistical
// memory seed; Dyn the dynamic-scheduling preset ("-" for none).
type cell struct {
	Bench   string
	Mode    experiments.Mode
	Machine string
	Mem     string
	CfgSeed uint64
	Dyn     string
}

// key is the cell's reference-file key.
func (c cell) key() string {
	return fmt.Sprintf("%s/%s/%s/%s/%d/%s", c.Bench, c.Mode, c.Machine, c.Mem, c.CfgSeed, c.Dyn)
}

var memModels = map[string]machine.MemoryModel{
	"Min": machine.MemMin, "Mem2": machine.Mem2, "Slow": machine.MemSlow,
}

var dynPresets = map[string]machine.DynamicModel{
	"OoO": machine.DynOoO, "TAGE": machine.DynTAGE, "Prefetch": machine.DynPrefetch, "All": machine.DynAll,
}

// dynNames lists the presets in a fixed order (map order is random).
var dynNames = []string{"OoO", "TAGE", "Prefetch", "All"}

// config builds the cell's machine configuration.
func (c cell) config() (*machine.Config, error) {
	var cfg *machine.Config
	switch {
	case c.Machine == "base":
		cfg = machine.Baseline()
	case strings.HasPrefix(c.Machine, "mix") && len(c.Machine) == 5:
		cfg = machine.Mix(int(c.Machine[3]-'0'), int(c.Machine[4]-'0'))
	default:
		for _, ic := range machine.Interconnects() {
			if ic.String() == c.Machine {
				cfg = machine.Baseline().WithInterconnect(ic)
			}
		}
	}
	if cfg == nil {
		return nil, fmt.Errorf("cell %s: unknown machine %q", c.key(), c.Machine)
	}
	mem, ok := memModels[c.Mem]
	if !ok {
		return nil, fmt.Errorf("cell %s: unknown memory model %q", c.key(), c.Mem)
	}
	cfg = cfg.WithMemory(mem).WithSeed(c.CfgSeed)
	if c.Dyn != "-" {
		d, ok := dynPresets[c.Dyn]
		if !ok {
			return nil, fmt.Errorf("cell %s: unknown dynamic preset %q", c.key(), c.Dyn)
		}
		cfg = cfg.WithDynamic(d)
	}
	return cfg, nil
}

// withoutDyn is the same cell with the dynamic-scheduling preset off.
func (c cell) withoutDyn() cell {
	c.Dyn = "-"
	return c
}

// paperMachines are the machines of paper-sweep: the baseline, the four
// restricted interconnects (Figure 6) and the sixteen Figure 8 unit mixes.
func paperMachines() []string {
	out := []string{"base"}
	for _, ic := range machine.Interconnects()[1:] {
		out = append(out, ic.String())
	}
	for iu := 1; iu <= 4; iu++ {
		for fpu := 1; fpu <= 4; fpu++ {
			out = append(out, fmt.Sprintf("mix%d%d", iu, fpu))
		}
	}
	return out
}

// benchOrder lists the benchmarks most expensive first, so a pass hands
// the long cells to the pool before the short ones (less idle tail).
var benchOrder = []string{"lud", "fft", "matrix", "model"}

// modeOrder lists modes most expensive per cell first.
var modeOrder = []experiments.Mode{experiments.COUPLED, experiments.TPE, experiments.STS, experiments.SEQ, experiments.IDEAL}

// paperUniverse is every cell paper-sweep can draw: the four benchmarks
// in every supported mode on every paper machine, single-cycle memory.
func paperUniverse() []cell {
	var out []cell
	for _, b := range benchOrder {
		for _, m := range modeOrder {
			if !experiments.ModeSupported(b, m) {
				continue
			}
			for _, mach := range paperMachines() {
				out = append(out, cell{b, m, mach, "Min", 0, "-"})
			}
		}
	}
	return out
}

// slowSeeds is the pool of statistical-memory seeds slow-memory draws
// from; a finite pool keeps every drawable cell in the reference file.
const slowSeeds = 8

// slowUniverse is every cell slow-memory can draw.
func slowUniverse() []cell {
	var out []cell
	for _, b := range benchOrder {
		for _, m := range []experiments.Mode{experiments.COUPLED, experiments.TPE} {
			for _, mem := range []string{"Mem2", "Slow"} {
				for s := uint64(1); s <= slowSeeds; s++ {
					for _, d := range append([]string{"-"}, dynNames...) {
						out = append(out, cell{b, m, "base", mem, s, d})
					}
				}
			}
		}
	}
	return out
}

// paperDraw draws paper-sweep's cells: for each (benchmark, mode) pair,
// its Table 2 cell on the baseline plus perPair-1 other machines drawn
// without replacement. Stratifying by pair keeps every seed's mix of
// cheap and expensive cells alike, so figures compare across seeds.
func paperDraw(seed int64, tiny bool) []cell {
	perPair := 8
	if tiny {
		perPair = 1
	}
	r := rand.New(rand.NewSource(seed))
	others := paperMachines()[1:]
	var out []cell
	for _, b := range benchOrder {
		for _, m := range modeOrder {
			if !experiments.ModeSupported(b, m) {
				continue
			}
			out = append(out, cell{b, m, "base", "Min", 0, "-"})
			perm := r.Perm(len(others))
			for _, i := range perm[:perPair-1] {
				out = append(out, cell{b, m, others[i], "Min", 0, "-"})
			}
		}
	}
	if tiny {
		out = filterBench(out, "model")
	}
	return out
}

// slowDraw draws slow-memory's cells: for each (benchmark, mode, memory)
// stratum, perStratum cells with drawn memory seeds, half of them
// plain and half under the dynamic-scheduling presets in turn, so every
// seed carries the same mix of preset costs.
func slowDraw(seed int64, tiny bool) []cell {
	perStratum := 8
	if tiny {
		perStratum = 2
	}
	r := rand.New(rand.NewSource(seed))
	var out []cell
	for _, b := range benchOrder {
		for _, m := range []experiments.Mode{experiments.COUPLED, experiments.TPE} {
			for _, mem := range []string{"Mem2", "Slow"} {
				for i := 0; i < perStratum; i++ {
					d := "-"
					if i%2 == 1 {
						d = dynNames[i/2%len(dynNames)]
					}
					out = append(out, cell{b, m, "base", mem, uint64(1 + r.Intn(slowSeeds)), d})
				}
			}
		}
	}
	if tiny {
		out = filterBench(out, "model")
	}
	return out
}

func filterBench(cs []cell, b string) []cell {
	var out []cell
	for _, c := range cs {
		if c.Bench == b {
			out = append(out, c)
		}
	}
	return out
}

// reference is a cell's recorded simulated statistics.
type reference struct {
	Cycles int64
	Ops    int64
	Digest string
}

// digest hashes the result counters that define a cell's simulated
// behaviour. Host-time fields do not exist in sim.Result, so the digest
// is exact and identical across hosts and runs.
func digest(r *sim.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	put(r.Cycles, r.Ops, r.WritebackRetries, r.OpCacheMisses, int64(len(r.Threads)))
	put(r.IssuedByKind[:]...)
	put(r.IssuedByUnit...)
	for _, p := range r.PeakRegsPerCluster {
		put(int64(p))
	}
	m := r.Mem
	put(m.Loads, m.Stores, m.Hits, m.Misses, m.PenaltySum, m.Parked, int64(m.MaxParked), m.BankConflict)
	put(m.LatencyHist[:]...)
	put(r.Interconnect.Grants, r.Interconnect.Rejects, r.Interconnect.OutageRejects)
	put(r.Interconnect.RejectsByCluster...)
	if d := r.Dyn; d != nil {
		put(d.Branches, d.Mispredicts, d.Squashes, d.SquashedOps, d.WindowIssued)
		if p := d.Prefetch; p != nil {
			put(p.Demand, p.Issued, p.Hits, p.Late, p.Useless)
		}
	}
	for _, t := range r.Threads {
		put(t.SpawnAt, t.HaltAt, t.OpsIssued)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// defaultRefsPath locates testdata/references.tsv beside this package's
// sources: the working directory when run from perfbench/, else the
// perfbench/ directory under it.
func defaultRefsPath() string {
	for _, p := range []string{"testdata/references.tsv", "perfbench/testdata/references.tsv"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "perfbench/testdata/references.tsv"
}

// loadReferences reads a reference file: "key cycles ops digest" lines,
// '#' comments.
func loadReferences(path string) (map[string]reference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	refs := map[string]reference{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fs := strings.Fields(text)
		if len(fs) != 4 {
			return nil, fmt.Errorf("%s:%d: want 4 fields, got %d", path, line, len(fs))
		}
		cyc, err1 := strconv.ParseInt(fs[1], 10, 64)
		ops, err2 := strconv.ParseInt(fs[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: bad counts", path, line)
		}
		refs[fs[0]] = reference{Cycles: cyc, Ops: ops, Digest: fs[3]}
	}
	return refs, sc.Err()
}

// recordReferences runs every cell of both sweep universes and writes
// the reference file. Run it only on a tree whose simulated results are
// known good: the file is what later runs are checked against.
func recordReferences(path string) error {
	cells := append(paperUniverse(), slowUniverse()...)
	lines := make([]string, len(cells))
	ctx := parexec.WithLimit(context.Background(), runtime.NumCPU())
	err := parexec.Run(ctx, len(cells), func(i int) error {
		c := cells[i]
		cfg, err := c.config()
		if err != nil {
			return err
		}
		r, err := experiments.ExecuteCtx(ctx, c.Bench, c.Mode, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.key(), err)
		}
		lines[i] = fmt.Sprintf("%s %d %d %s", c.key(), r.Cycles, r.Result.Ops, digest(r.Result))
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(lines)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	head := "# perfbench cell references: key cycles ops result-digest\n" +
		"# key = bench/mode/machine/memory/memory-seed/dynamic-preset; regenerate with --record\n"
	return os.WriteFile(path, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644)
}

// checkCell compares a cell's simulated cycles and ops, and its result
// digest unless dig is "" (a service payload carries no full result),
// against the reference. With no reference the cell is counted as
// unchecked (its output was still verified by the benchmark's checker).
func checkCell(g *gate, refs map[string]reference, c cell, cycles, ops int64, dig string) error {
	ref, ok := refs[c.key()]
	if !ok {
		g.unchecked.Add(1)
		return nil
	}
	g.checked.Add(1)
	if cycles != ref.Cycles || ops != ref.Ops {
		return fmt.Errorf("%s: %d cycles %d ops, reference %d cycles %d ops", c.key(), cycles, ops, ref.Cycles, ref.Ops)
	}
	if dig != "" && dig != ref.Digest {
		return fmt.Errorf("%s: result digest %s, reference %s", c.key(), dig, ref.Digest)
	}
	return nil
}

// benchKind is the source variant a mode runs (mirrors experiments).
func benchKind(m experiments.Mode) bench.SourceKind {
	switch m {
	case experiments.SEQ, experiments.STS:
		return bench.Sequential
	case experiments.IDEAL:
		return bench.Ideal
	default:
		return bench.Threaded
	}
}
