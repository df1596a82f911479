package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"pcoup/internal/bench"
	"pcoup/internal/compiler"
	"pcoup/internal/experiments"
	"pcoup/internal/isa"
	"pcoup/internal/machine"
	"pcoup/internal/parexec"
	"pcoup/internal/sexpr"
	"pcoup/internal/sim"
)

// sweep is the paper-sweep and slow-memory workload: whole passes over
// a seeded cell list through experiments.ExecuteCtx, fanned out by
// parexec at width nproc, every cell verified by the benchmark checker
// and against its recorded reference.
type sweep struct {
	cells []cell
	cfgs  []*machine.Config
	refs  map[string]reference
	width int
}

func newSweep(o *options, draw func(seed int64, tiny bool) []cell) (workload, error) {
	refs, err := loadReferences(o.refs)
	if err != nil {
		return nil, err
	}
	w := &sweep{cells: draw(o.seed, o.tiny), refs: refs, width: runtime.NumCPU()}
	// Compile every distinct program of the draw: the work the program
	// cache fill does, repeated by every set-up so setup_s carries it.
	compiled := map[string]bool{}
	for _, c := range w.cells {
		cfg, err := c.config()
		if err != nil {
			return nil, err
		}
		w.cfgs = append(w.cfgs, cfg)
		k := fmt.Sprintf("%s/%s/%s/%s", c.Bench, c.Mode, compileMachine(c.Machine), c.Dyn)
		if compiled[k] {
			continue
		}
		compiled[k] = true
		b, err := bench.Get(c.Bench, benchKind(c.Mode))
		if err != nil {
			return nil, err
		}
		if _, _, err := compiler.Compile(b.Source, cfg, compiler.Options{Mode: experiments.CompilerMode(c.Mode)}); err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
	}
	return w, nil
}

// compileMachine maps interconnect variants onto the baseline: the
// interconnect is a runtime knob, so they share the baseline's program.
func compileMachine(m string) string {
	if m == "base" || len(m) == 5 && m[:3] == "mix" {
		return m
	}
	return "base"
}

func (w *sweep) close() {}

// measure runs whole passes until d has elapsed (at least one pass; the
// first pass fills the program cache and is not timed).
func (w *sweep) measure(d time.Duration, tr *tracer) (*outcome, error) {
	ctx := parexec.WithLimit(context.Background(), w.width)
	g := &gate{}
	if _, _, err := w.pass(ctx, g, nil, -1); err != nil {
		return nil, err
	}
	var lat []float64
	var cycles int64
	var wall time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < d; n++ {
		c, durs, err := w.pass(ctx, g, tr, n)
		if err != nil {
			return nil, err
		}
		cycles += c
		wall += durs[len(durs)-1]
		for _, t := range durs[:len(durs)-1] {
			lat = append(lat, float64(t)/float64(time.Millisecond))
		}
	}
	return &outcome{
		gate: g,
		figures: []figure{
			{"simcycles_per_s", float64(cycles) / wall.Seconds(), "cycles/s", n},
			{"sweep_cells_per_s", float64(n*len(w.cells)) / wall.Seconds(), "1/s", n},
			{"program_ms_p50", quantile(lat, 0.50), "ms", len(lat)},
			{"program_ms_p99", quantile(lat, 0.99), "ms", len(lat)},
		},
	}, nil
}

// pass executes every cell once. It returns the simulated cycles and the
// per-cell host times followed by the pass wall-clock. n < 0 marks the
// untimed warm-up pass, which is gated but not traced.
func (w *sweep) pass(ctx context.Context, g *gate, tr *tracer, n int) (int64, []time.Duration, error) {
	durs := make([]time.Duration, len(w.cells)+1)
	cycles := make([]int64, len(w.cells))
	ps := tr.begin("pass", 0, fmt.Sprintf("pass-%d", n))
	start := time.Now()
	err := parexec.Run(ctx, len(w.cells), func(i int) error {
		c := w.cells[i]
		cs := tr.begin("experiments.ExecuteCtx", ps.id(), c.key())
		t0 := time.Now()
		r, err := experiments.ExecuteCtx(ctx, c.Bench, c.Mode, w.cfgs[i])
		durs[i] = time.Since(t0)
		tr.end(cs)
		if err == nil {
			cycles[i] = r.Cycles
			err = checkCell(g, w.refs, c, r.Cycles, r.Result.Ops, digest(r.Result))
		}
		g.check(err)
		return nil
	})
	durs[len(w.cells)] = time.Since(start)
	tr.end(ps)
	var total int64
	for _, c := range cycles {
		total += c
	}
	return total, durs, err
}

// layers derives the per-layer figures: the parallel pass spans give
// the pass wall-clock; a sequential replay of every cell through the
// module entry points (sexpr.Parse, compiler.CompileForms, sim.New,
// Run, verify, Release) gives each layer's own time and counts.
func (w *sweep) layers(tr *tracer, traced, untraced *outcome) ([]figure, error) {
	rp := replay{g: traced.gate, refs: w.refs}
	for i, c := range w.cells {
		st, err := rp.cell(tr, c, w.cfgs[i])
		if err != nil {
			return nil, err
		}
		if c.Dyn != "-" {
			cfg, err := c.withoutDyn().config()
			if err != nil {
				return nil, err
			}
			off := replay{g: traced.gate, refs: w.refs}
			plain, err := off.cell(nil, c.withoutDyn(), cfg)
			if err != nil {
				return nil, err
			}
			rp.dynOverhead = append(rp.dynOverhead, ratio(st.nsPerCycle(), plain.nsPerCycle()))
		}
	}
	passWall := median(tr.durations("pass", time.Second))
	lookups, fills, _ := experiments.ProgCacheStats()
	figs := rp.figures(tr)
	figs = append(figs,
		figure{"experiments.progcache_hit_ratio", ratio(float64(lookups-fills), float64(lookups)), "ratio", int(lookups)},
		figure{"parexec.efficiency", ratio(rp.execSeconds, passWall*float64(w.width)), "ratio", len(tr.named("pass"))},
		figure{"trace.overhead_ratio", ratio(untraced.value("simcycles_per_s"), traced.value("simcycles_per_s")), "ratio", 2},
	)
	return figs, nil
}

// replay accumulates the per-layer counters of a sequential replay.
type replay struct {
	g                                     *gate
	refs                                  map[string]reference
	parseAllocs, compileAllocs, runAllocs float64
	words, ops                            int64
	runNS, busy, skipped, cycles, simOps  int64
	mem                                   memTotals
	dyn                                   dynTotals
	execSeconds                           float64
	dynOverhead                           []float64
}

type memTotals struct{ hits, misses, penalty, parked int64 }

type dynTotals struct{ branches, mispredicts, squashed, ops, prefIssued, prefUseless int64 }

// cellStat is one replayed simulation.
type cellStat struct {
	run    time.Duration
	cycles int64
}

func (s cellStat) nsPerCycle() float64 { return ratio(float64(s.run.Nanoseconds()), float64(s.cycles)) }

// mallocs reads the process's cumulative heap allocation count.
func mallocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cell replays one sweep cell layer by layer, verifying its output with
// the benchmark checker and its statistics against the reference.
func (rp *replay) cell(tr *tracer, c cell, cfg *machine.Config) (cellStat, error) {
	b, err := bench.Get(c.Bench, benchKind(c.Mode))
	if err != nil {
		return cellStat{}, err
	}
	root := tr.begin("replay", 0, c.key())
	defer tr.end(root)
	prog, err := rp.compile(tr, root.id(), c.key(), b.Source, cfg, compiler.Options{Mode: experiments.CompilerMode(c.Mode)})
	if err != nil {
		return cellStat{}, fmt.Errorf("%s: %w", c.key(), err)
	}
	t0 := time.Now()
	s, res, st, err := rp.simulate(tr, root.id(), c.key(), cfg, prog, 0)
	if err != nil {
		rp.g.fail("%s: %v", c.key(), err)
		return st, nil
	}
	vs := tr.begin("verify", root.id(), c.key())
	err = b.Verify(peeker(s, prog))
	tr.end(vs)
	s.Release()
	rp.execSeconds += time.Since(t0).Seconds()
	if err != nil {
		rp.g.fail("%s: wrong result: %v", c.key(), err)
		return st, nil
	}
	rp.g.check(checkCell(rp.g, rp.refs, c, res.Cycles, res.Ops, digest(res)))
	return st, nil
}

// compile parses and compiles src with spans and allocation counts.
func (rp *replay) compile(tr *tracer, parent int, job, src string, cfg *machine.Config, opts compiler.Options) (*isa.Program, error) {
	a0 := mallocs()
	ps := tr.begin("sexpr.Parse", parent, job)
	forms, err := sexpr.Parse(src)
	tr.end(ps)
	a1 := mallocs()
	if err != nil {
		return nil, err
	}
	cs := tr.begin("compiler.CompileForms", parent, job)
	prog, diags, err := compiler.CompileForms(forms, cfg, opts)
	tr.end(cs)
	a2 := mallocs()
	if err != nil {
		return nil, err
	}
	rp.parseAllocs += a1 - a0
	rp.compileAllocs += a2 - a1
	for _, sd := range diags.Segments {
		rp.words += int64(sd.Words)
		rp.ops += int64(sd.Ops)
	}
	return prog, nil
}

// simulate runs sim.New and Run with spans, accumulating the sim,
// memsys and dynsched counters. The caller releases the Sim.
func (rp *replay) simulate(tr *tracer, parent int, job string, cfg *machine.Config, prog *isa.Program, maxCycles int64) (*sim.Sim, *sim.Result, cellStat, error) {
	ns := tr.begin("sim.New", parent, job)
	s, err := sim.New(cfg, prog)
	tr.end(ns)
	if err != nil {
		return nil, nil, cellStat{}, err
	}
	a0 := mallocs()
	rs := tr.begin("sim.Run", parent, job)
	t0 := time.Now()
	res, err := s.Run(maxCycles)
	run := time.Since(t0)
	if err != nil {
		tr.end(rs)
		return nil, nil, cellStat{}, err
	}
	tr.endWith(rs, "", res.Cycles)
	rp.runAllocs += mallocs() - a0
	rp.runNS += run.Nanoseconds()
	rp.cycles += res.Cycles
	rp.skipped += s.SkippedCycles()
	rp.busy += res.Cycles - s.SkippedCycles()
	rp.simOps += res.Ops
	rp.mem.hits += res.Mem.Hits
	rp.mem.misses += res.Mem.Misses
	rp.mem.penalty += res.Mem.PenaltySum
	rp.mem.parked += res.Mem.Parked
	if d := res.Dyn; d != nil {
		rp.dyn.branches += d.Branches
		rp.dyn.mispredicts += d.Mispredicts
		rp.dyn.squashed += d.SquashedOps
		rp.dyn.ops += res.Ops
		if p := d.Prefetch; p != nil {
			rp.dyn.prefIssued += p.Issued
			rp.dyn.prefUseless += p.Useless
		}
	}
	return s, res, cellStat{run: run, cycles: res.Cycles}, nil
}

// figures renders the replay's sexpr, compiler, sim, memsys and dynsched
// figures; timings are medians of the replay spans.
func (rp *replay) figures(tr *tracer) []figure {
	nParse := len(tr.named("sexpr.Parse"))
	nCompile := len(tr.named("compiler.CompileForms"))
	nRun := len(tr.named("sim.Run"))
	return []figure{
		{"sexpr.parse_us", median(tr.durations("sexpr.Parse", time.Microsecond)), "us", nParse},
		{"sexpr.allocs_per_parse", ratio(rp.parseAllocs, float64(nParse)), "count", nParse},
		{"compiler.compile_us", median(tr.durations("compiler.CompileForms", time.Microsecond)), "us", nCompile},
		{"compiler.allocs_per_compile", ratio(rp.compileAllocs, float64(nCompile)), "count", nCompile},
		{"compiler.words", float64(rp.words), "count", nCompile},
		{"compiler.ops", float64(rp.ops), "count", nCompile},
		{"sim.new_us", median(tr.durations("sim.New", time.Microsecond)), "us", nRun},
		{"sim.ns_per_busy_cycle", ratio(float64(rp.runNS), float64(rp.busy)), "ns", nRun},
		{"sim.skipped_share", ratio(float64(rp.skipped), float64(rp.cycles)), "ratio", nRun},
		{"sim.allocs_per_cycle", ratio(rp.runAllocs, float64(rp.cycles)), "count", nRun},
		{"sim.ops_per_cycle", ratio(float64(rp.simOps), float64(rp.cycles)), "ops/cycle", nRun},
		{"memsys.miss_ratio", ratio(float64(rp.mem.misses), float64(rp.mem.hits+rp.mem.misses)), "ratio", nRun},
		{"memsys.mean_miss_penalty", ratio(float64(rp.mem.penalty), float64(rp.mem.misses)), "cycles", nRun},
		{"memsys.parked_refs", float64(rp.mem.parked), "count", nRun},
		{"dynsched.mispredict_ratio", ratio(float64(rp.dyn.mispredicts), float64(rp.dyn.branches)), "ratio", nRun},
		{"dynsched.squashed_ops_ratio", ratio(float64(rp.dyn.squashed), float64(rp.dyn.ops)), "ratio", nRun},
		{"dynsched.prefetch_useful_ratio", ratio(float64(rp.dyn.prefIssued-rp.dyn.prefUseless), float64(rp.dyn.prefIssued)), "ratio", nRun},
		{"dynsched.ns_per_cycle_overhead", median(rp.dynOverhead), "ratio", len(rp.dynOverhead)},
	}
}

// peeker reads the simulator's final memory image by global name.
func peeker(s *sim.Sim, prog *isa.Program) bench.Peek {
	addrs := map[string]int64{}
	for _, d := range prog.Data {
		addrs[d.Name] = d.Addr
	}
	return func(global string, off int64) (isa.Value, bool) {
		base, ok := addrs[global]
		if !ok {
			return isa.Value{}, false
		}
		v, _ := s.Memory().Peek(base + off)
		return v, true
	}
}
