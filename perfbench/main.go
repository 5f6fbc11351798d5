// Command perfbench is the repository benchmark: it replays the paper's
// month under CODA, a warehouse-scale day under FIFO, and drives the
// WAL-backed control plane over loopback, then prints every metric by name
// with its unit and whether the outputs checked out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-month-coda --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of runs with no timing
// wrappers. With --trace 1 it wraps each layer's public seam, records one
// span per wrapped call and reports per-layer metrics instead, writing the
// spans under .bench_build/spans. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is what one benchmark run prints last.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runConfig carries the command line into a workload.
type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
}

// spansDir is where traced runs write their spans, inside the build
// directory the checkout ignores.
const spansDir = ".bench_build/spans"

// outcome is a workload's raw result before it becomes a Report: the
// metrics, the output-check tally, and notes explaining absent metrics.
type outcome struct {
	metrics   map[string]Metric
	attempted int
	failed    int
	notes     []string
	spans     *Tracer
	agg       map[string]*LayerStats // spans aggregated by name, on first use
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]Metric)
	}
	o.metrics[name] = Metric{Value: v, Unit: unit}
}

// absent reports a per-layer metric as 0 with the reason it cannot occur
// on this workload.
func (o *outcome) absent(name, unit, why string) {
	o.set(name, unit, 0)
	o.notes = append(o.notes, fmt.Sprintf("%s absent: %s", name, why))
}

// check counts one attempted run or request and whether its output check
// passed, printing the reason for a failure.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Printf("check failed: %v\n", err)
	}
}

// workload is one entry of the benchmark: how to run it and how many
// threads may run Go code while it does.
type workload struct {
	run   func(runConfig) (*outcome, error)
	procs int
}

// Engine replays are single-threaded, so they run with one P: with a second
// one the concurrent garbage collector's share lands on a CPU the host
// shares with other tenants, which on a 2-core host doubled the run-to-run
// spread and hid GC cost from the wall time. The serve workload runs the
// server, the ticker and the load generator side by side on every CPU.
var workloads = map[string]workload{
	"paper-month-coda":   {func(c runConfig) (*outcome, error) { return runEngine(c, paperMonthCODA) }, 1},
	"warehouse-day-fifo": {func(c runConfig) (*outcome, error) { return runEngine(c, warehouseDayFIFO) }, 1},
	"serve-mixed-coda":   {runServe, runtime.NumCPU()},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: paper-month-coda, warehouse-day-fifo or serve-mixed-coda")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 40, "how long to measure")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from untraced runs")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
	}
	runtime.GOMAXPROCS(w.procs)
	prov := newProvenance(cfg)
	fmt.Printf("provenance: %s\n", prov.JSON())

	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if out.spans != nil {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		path := fmt.Sprintf("%s/%s-seed%d.csv", spansDir, cfg.workload, cfg.seed)
		spans, names := out.spans.Snapshot()
		if err := writeSpans(path, prov, spans, names); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := out.metrics[k]
		fmt.Printf("%-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	rep := Report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
