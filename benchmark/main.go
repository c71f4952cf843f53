// Command benchmark is the repository's benchmark. One invocation runs
// one named workload of the aspeo stack for a fixed wall budget, checks
// every simulated result against reference digests, and prints its
// metrics: the end-to-end metrics with tracing off, or — with --trace 1 —
// the per-layer split from a run instrumented from outside, at the
// calls into the stack's public functions.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1512, "failed": 0, "metrics": {"setup_s": {"value": 1.93, "unit": "s"}, ...}}
//
// A human-readable report of the same run goes to standard error.
//
// Usage (from the repository root; see README.md):
//
//	bash benchmark/run.sh --workload paper-cells --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --summarize base.jsonl,change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's configuration.
type config struct {
	workload string
	seed     int64
	// seconds is the measured wall budget; warmup runs before it and is
	// discarded.
	seconds, warmup time.Duration
	trace           bool
	// short shrinks every input so a whole run fits a unit test: fewer
	// cells and sessions, shorter sessions, a coarse profiling pass. The
	// golden digests do not apply to it.
	short bool
}

// defaultWarmup runs before the measured window and is discarded.
const defaultWarmup = 2 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+workloadNames())
		seed      = fs.Int64("seed", goldenSeed, "input seed: session seeds, arrivals and the generated population derive from it")
		seconds   = fs.Int("seconds", 20, "measured wall seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		update    = fs.String("update-digests", "", "merge the digests this run observed into this golden file (with --seed 101)")
		summarize = fs.String("summarize", "", "comma-separated result files (JSON lines, one workload each): print medians and spreads against the bounds in ./BENCHMARK.json, and compare the first file against the others")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize != "" {
		if err := summarizeFiles(stdout, "BENCHMARK.json", *summarize); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, warmup: defaultWarmup,
		trace: *trace == 1,
	}
	res, b, err := execute(cfg, wl, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *update != "" {
		if err := b.checker.writeGolden(*update, cfg.workload); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metricValue and result are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload and assembles its result line from the
// metric catalog that matches the run's mode.
func execute(cfg config, wl *workloadDef, log io.Writer) (result, *bench, error) {
	b := newBench(cfg, log)
	b.logf("%s seed=%d seconds=%v trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err := wl.run(b); err != nil {
		return result{}, b, err
	}
	catalog := endToEnd
	if cfg.trace {
		catalog = perLayer
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue, len(catalog))}
	for _, def := range catalog {
		v, ok := b.metrics[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, b, fmt.Errorf("metric %s not measured (got %v)", def.name, v)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	res.Correct = b.failed == 0 && b.attempted > 0
	b.logf("attempted %d, failed %d%s", b.attempted, b.failed, b.checker.report())
	return res, b, nil
}

// workloadDef is one named workload; README.md says why each exists.
type workloadDef struct {
	name string
	run  func(*bench) error
}

var workloads = []workloadDef{
	{"paper-cells", paperCells},
	{"idle-doze", idleDoze},
	{"fleet-steady", fleetSteady},
	{"population-burst", populationBurst},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricDef names one reported metric and its unit; BENCHMARK.json
// lists the same names and units (a test holds them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees, measured with
// tracing off. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "sim_s/s"},
	{"session_ms.p50", "ms"},
	{"session_ms.p99", "ms"},
	{"allocs_per_session", "count"},
	{"alloc_kb_per_session", "KiB"},
}

// perLayer are the traced run's metrics, prefixed by the module they
// measure. Times of a layer that only some workloads run are reported as
// shares (of instrumented cell wall time unless noted) so a workload that
// bypasses the layer reads 0 rather than a missing row.
var perLayer = []metricDef{
	{"sim.self_ns_per_sim_s", "ns"},
	{"sim.self_frac", "frac"},
	{"sim.events_per_sim_s", "1/sim_s"},
	{"core.wall_frac", "frac"},
	{"core.measure_frac", "frac"},
	{"core.optimize_frac", "frac"},
	{"core.schedule_frac", "frac"},
	{"core.actuate_frac", "frac"},
	{"core.solve_frac", "frac"},
	{"core.cycles_per_s", "1/s"},
	{"core.solve_cache_hit_ratio", "frac"},
	{"sysfs.write_frac", "frac"},
	{"sysfs.writes_per_cycle", "count"},
	{"perftool.tick_ns", "ns"},
	{"perftool.wall_frac", "frac"},
	{"perftool.ticks_per_sim_s", "1/sim_s"},
	{"governor.wall_frac", "frac"},
	{"governor.ticks_per_sim_s", "1/sim_s"},
	{"experiment.new_session_us.p50", "us"},
	{"experiment.new_session_us.p99", "us"},
	{"experiment.new_session_allocs", "count"},
	{"experiment.trace_allocs_per_cycle", "count"},
	{"profile.setup_frac", "frac"},
	{"scenario.setup_frac", "frac"},
	{"fleet.queue_frac", "frac"},
	{"fleet.worker_busy_frac", "frac"},
	{"fleet.allocs_per_cycle", "count"},
	{"pipeline.scrape_busy_frac", "frac"},
	{"pipeline.exposition_frac", "frac"},
	{"pipeline.stream_records_per_cycle", "frac"},
	{"pipeline.scrape_allocs", "count"},
	{"runtime.cpu_ms_per_session", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.heap_peak_mb", "MiB"},
	{"bench.generator_late_ms.p99", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}
