// Command perfbench is the repository's benchmark of record. It drives
// the pcoup system from outside, through the public entry points of its
// modules, on three named workloads (paper-sweep, slow-memory,
// service-mix), checks every output against references, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics derived
// from in-memory spans) followed by one JSON result line.
//
// Usage:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	perfbench --record testdata/references.tsv   # regenerate cell references
//
// See README.md for the workload table and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart anchors the set-up clock: the first set-up is measured
// from here, so runtime and package initialisation count toward it.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow boot does not move the figure.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	refs     string
	tiny     bool
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// figure is one measured value with its unit and sample count, printed
// in the human-readable table above the result line.
type figure struct {
	name    string
	value   float64
	unit    string
	samples int
}

// workload is one benchmark scenario, built from the seed by its
// constructor (the set-up). measure runs it for d, recording spans into
// tr when tr is not nil.
type workload interface {
	measure(d time.Duration, tr *tracer) (*outcome, error)
	// layers derives the per-layer figures from a traced measurement.
	layers(tr *tracer, traced, untraced *outcome) ([]figure, error)
	close()
}

// outcome is what one measurement window produced.
type outcome struct {
	gate    *gate
	figures []figure
}

func (o *outcome) value(name string) float64 {
	for _, f := range o.figures {
		if f.name == name {
			return f.value
		}
	}
	return 0
}

var workloads = map[string]func(o *options) (workload, error){
	"paper-sweep": func(o *options) (workload, error) { return newSweep(o, paperDraw) },
	"slow-memory": func(o *options) (workload, error) { return newSweep(o, slowDraw) },
	"service-mix": newServiceMix,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: paper-sweep, slow-memory or service-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	fs.StringVar(&o.refs, "refs", "", "cell reference file (default testdata/references.tsv beside the binary's sources)")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke tests)")
	record := fs.String("record", "", "record references for every cell of the sweep universes to this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = *traceFlag != 0
	if o.refs == "" {
		o.refs = defaultRefsPath()
	}
	if *record != "" {
		return recordReferences(*record)
	}
	mk, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (paper-sweep, slow-memory, service-mix)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}

	w, setupS, err := setUp(o, mk)
	if err != nil {
		return err
	}
	defer w.close()
	window := time.Duration(o.seconds * float64(time.Second))

	var figs []figure
	var g *gate
	if !o.trace {
		out, err := w.measure(window, nil)
		if err != nil {
			return err
		}
		g = out.gate
		figs = append(figs, figure{"setup_s", median(setupS), "s", len(setupS)})
		figs = append(figs, out.figures...)
		figs = append(figs, figure{"rss_peak_mb", rssPeakMB(), "MB", 1})
	} else {
		// Half the window untraced, half traced: the pair gives the
		// tracing overhead, the traced half the spans.
		untraced, err := w.measure(window/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		traced, err := w.measure(window/2, tr)
		if err != nil {
			return err
		}
		g = untraced.gate
		g.merge(traced.gate)
		if figs, err = w.layers(tr, traced, untraced); err != nil {
			return err
		}
		figs = withAllLayers(figs)
		if err := tr.writeFile(o.traceOut, hostInfo()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", tr.len(), o.traceOut)
	}
	return printReport(stdout, o, g, figs)
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"sexpr.parse_us":                  "us",
	"sexpr.allocs_per_parse":          "count",
	"compiler.compile_us":             "us",
	"compiler.allocs_per_compile":     "count",
	"compiler.words":                  "count",
	"compiler.ops":                    "count",
	"experiments.progcache_hit_ratio": "ratio",
	"parexec.efficiency":              "ratio",
	"sim.new_us":                      "us",
	"sim.ns_per_busy_cycle":           "ns",
	"sim.skipped_share":               "ratio",
	"sim.allocs_per_cycle":            "count",
	"sim.ops_per_cycle":               "ops/cycle",
	"memsys.miss_ratio":               "ratio",
	"memsys.mean_miss_penalty":        "cycles",
	"memsys.parked_refs":              "count",
	"dynsched.mispredict_ratio":       "ratio",
	"dynsched.squashed_ops_ratio":     "ratio",
	"dynsched.prefetch_useful_ratio":  "ratio",
	"dynsched.ns_per_cycle_overhead":  "ratio",
	"service.submit_ms":               "ms",
	"service.exec_ms":                 "ms",
	"service.cache_hit_ratio":         "ratio",
	"service.payload_bytes":           "bytes",
	"fleet.gateway_self_ms":           "ms",
	"fleet.validate_us":               "us",
	"fleet.backend_rpcs_per_job":      "count",
	"fleet.affinity_hit_ratio":        "ratio",
	"fleet.steals":                    "count",
	"fleet.peer_fills":                "count",
	"fleet.hedges":                    "count",
	"trace.overhead_ratio":            "ratio",
}

// withAllLayers adds a zero figure for every per-layer metric figs lacks.
func withAllLayers(figs []figure) []figure {
	have := map[string]bool{}
	for _, f := range figs {
		have[f.name] = true
	}
	for name, unit := range layerUnits {
		if !have[name] {
			figs = append(figs, figure{name, 0, unit, 0})
		}
	}
	return figs
}

// setUp builds the workload setupReps times and keeps the last; it
// returns the set-up durations (the first measured from process start).
func setUp(o *options, mk func(*options) (workload, error)) (workload, []float64, error) {
	var times []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		next, err := mk(o)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if w != nil {
			w.close()
		}
		w = next
	}
	return w, times, nil
}

// printReport prints host identity, the figure table with sample counts,
// the correctness gate, and the result line (last).
func printReport(stdout io.Writer, o *options, g *gate, figs []figure) error {
	host, _ := json.Marshal(hostInfo())
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%t (all times are host wall-clock)\n",
		o.workload, o.seed, o.seconds, o.trace)
	rep := report{Metrics: map[string]metric{}}
	sort.SliceStable(figs, func(i, j int) bool { return figs[i].name < figs[j].name })
	for _, f := range figs {
		fmt.Fprintf(stdout, "  %-32s %14.6g %-10s n=%d\n", f.name, f.value, f.unit, f.samples)
		rep.Metrics[f.name] = metric{Value: f.value, Unit: f.unit}
	}
	att, failed := g.attempted.Load(), g.failed.Load()
	fmt.Fprintf(stdout, "gate: attempted=%d failed=%d error_rate=%.6g cycle-identity=%s\n",
		att, failed, float64(failed)/float64(max(att, 1)), g.identity())
	for _, e := range g.errors() {
		fmt.Fprintf(stdout, "  failure: %s\n", e)
	}
	rep.Attempted, rep.Failed = att, failed
	rep.Correct = att > 0 && failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}
