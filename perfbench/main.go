// Command perfbench is the repository benchmark. It builds one workload's
// inputs from a seed, sets the system up, runs operations for a fixed
// time, checks every answer against the in-memory reference, and prints
// the workload's metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics (from a traced run) with --trace 1. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// README.md in this directory documents the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// DefaultSeed is the seed a run uses when --seed is absent. HeldOutSeed is
// never used while a change is developed; a change that claims a gain
// confirms it on this seed too.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// metricDef names one metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a run with tracing off reports, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s_p50", "s"},
	{"run_s_p90", "s"},
	{"edges_per_s", "edges/s"},
	{"ideal_ratio", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. Every workload reports
// all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"storage.build_s", "s"},
	{"storage.pages", "pages"},
	{"storage.bytes_per_edge", "B/edge"},
	{"storage.decode_ns_per_page", "ns/page"},
	{"ssd.reads", "count"},
	{"ssd.pages_read", "pages"},
	{"ssd.pages_per_read", "pages/read"},
	{"ssd.read_s", "s"},
	{"ssd.sim_busy_s", "s"},
	{"ssd.inflight_mean", "reads"},
	{"buffer.reused_pages", "pages"},
	{"buffer.reuse_frac", "ratio"},
	{"core.iterations", "count"},
	{"core.internal_busy_s", "s"},
	{"core.external_busy_s", "s"},
	{"core.load_s", "s"},
	{"core.busy_frac", "ratio"},
	{"core.morphs", "count"},
	{"core.unaccounted_frac", "ratio"},
	{"core.speedup_real", "ratio"},
	{"core.speedup_virtual", "ratio"},
	{"iosched.coalesced_reads", "count"},
	{"iosched.pages_per_coalesced_read", "pages/read"},
	{"iosched.prefetch_useful_frac", "ratio"},
	{"intersect.ops", "count"},
	{"intersect.ns_per_op", "ns/op"},
	{"intersect.ops_per_busy_s", "ops/s"},
	{"output.emit_s", "s"},
	{"output.bytes", "B"},
	{"output.close_s", "s"},
	{"events.count", "count"},
	{"server.submit_s_p50", "s"},
	{"server.task_s_p50", "s"},
	{"server.queue_wait_s_p50", "s"},
	{"server.cache_hits", "count"},
	{"server.rejected", "count"},
	{"server.sse_frames", "count"},
	{"cluster.dispatched", "count"},
	{"cluster.retries", "count"},
	{"cluster.duplicates", "count"},
	{"cluster.task_s_p50", "s"},
	{"cluster.task_s_max", "s"},
	{"cluster.straggle_ratio", "ratio"},
	{"cluster.agent_busy_frac", "ratio"},
	{"cluster.pages_read_per_task", "pages"},
	{"self.bench_s", "s"},
	{"self.core_s", "s"},
	{"self.ssd_s", "s"},
	{"self.output_s", "s"},
	{"self.server_s", "s"},
	{"self.cluster_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout; scratch files live under root/.bench_build.
	root string
	// tiny shrinks every input to a few thousand edges (the smoke tests).
	tiny bool
	// expectBias is added to every expected triangle count. It is only
	// set by the tests, to show that a wrong answer fails the run.
	expectBias int64
}

// workDir is the per-run scratch directory, removed when the run ends.
func (c config) workDir() string {
	return filepath.Join(c.root, ".bench_build", "perfbench", fmt.Sprintf("work-%s-%d-%d", c.workload, c.seed, os.Getpid()))
}

// traceFile is where a traced run writes its spans.
func (c config) traceFile() string {
	return filepath.Join(c.root, ".bench_build", "perfbench", "trace-"+c.workload+".json")
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// wrong lists the answers that did not match the reference.
	wrong   []string
	metrics map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

// checked books a wrong answer from an extra run (one outside the timed
// operations) as a failed operation, and passes any other error on.
func (o *outcome) checked(err error) error {
	if errors.Is(err, errWrong) {
		o.attempted++
		o.fail("%v", err)
		return nil
	}
	return err
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*outcome, error){
	"io-overlap": runIOOverlap,
	"cpu-list":   runCPUList,
	"dist-serve": runDistServe,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints its metrics. It returns
// the process exit code: 0 when every answer was right, 1 otherwise, 2
// on a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(ctx, cfg, stdout, stderr)
}

// execute runs one configured workload and prints its report.
func execute(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	out, err := runConfig(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := report(cfg, out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, w := range out.wrong {
			fmt.Fprintln(stderr, "perfbench: wrong answer:", w)
		}
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: io-overlap, cpu-list or dist-serve")
	fs.Int64Var(&cfg.seed, "seed", DefaultSeed, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "seconds of operations the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root; scratch files go under ROOT/.bench_build")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every input to smoke-test size")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want io-overlap, cpu-list or dist-serve)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// runConfig runs the configured workload in its own scratch directory.
func runConfig(ctx context.Context, cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workDir(), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir())
	return workloads[cfg.workload](ctx, cfg)
}

// report prints every metric of the run's set by name and unit, then the
// JSON result line. A metric of the set that the workload did not produce
// is an error for end-to-end metrics and reads 0 for per-layer ones.
func report(cfg config, out *outcome, w io.Writer) (result, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := out.metrics[d.Name]
		if !ok && !cfg.trace {
			return res, fmt.Errorf("workload %s produced no %s", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("workload %s produced metrics outside the set: %v", cfg.workload, extra)
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d operations, %d failed\n",
		cfg.workload, cfg.seed, cfg.trace, out.attempted, out.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", "failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}

// errWrong marks a run whose answer disagreed with the reference.
var errWrong = errors.New("wrong answer")

// timedLoop calls op until the operations it timed add up to seconds and
// it has run at least minOps times. op returns the time it measured. The
// loop also ends, after minOps calls, once the whole phase has lasted
// three times seconds, so failing operations cannot keep it spinning.
func timedLoop(ctx context.Context, seconds float64, minOps int, op func(i int) (time.Duration, error)) error {
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	var measured time.Duration
	for i := 0; i < minOps || (measured < limit && time.Since(start) < 3*limit); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d, err := op(i)
		if err != nil {
			return err
		}
		measured += d
	}
	return nil
}
