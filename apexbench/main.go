// Command apexbench is the outside-in benchmark of the APEX
// reproduction. It drives four named workloads through the program's
// public entry points (eval.Harness, sweep.Run, serve.Server over
// HTTP), checks every output against its reference, and prints one JSON
// result line. With -trace 0 the line carries the end-to-end metrics;
// with -trace 1 it carries the per-layer metrics, which come from a
// replay of the same inputs through each module's public functions
// under the benchmark's own span recorder. See README.md.
//
// Usage (from the repository root):
//
//	bash apexbench/run.sh --workload suite-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload. run performs set-up, the timed
// loop and the output gates, and (when tr is non-nil) the traced replay;
// it fills res.
type workload struct {
	name string
	run  func(cfg *config, res *result, tr *tracer) error
}

var workloads = []workload{
	{"suite-cold", runSuiteCold},
	{"suite-warm", runSuiteWarm},
	{"sweep-triage", runSweepTriage},
	{"daemon-mixed", runDaemonMixed},
}

// config is the parsed command line plus the paths the run may use.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout (the parent of the benchmark
	// directory); work is this run's scratch directory inside it.
	root string
	work string
}

// result collects what one run measured. Timings are in the unit the
// metric is reported in.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// order is the insertion order of metrics, for the human summary.
	order []string
	// probes are the speed-probe times of the run, in seconds, and
	// probeMem what the probes allocated and collected.
	probes   []float64
	probeMem memSnap
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value (summary only).
	n int
}

func (r *result) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// gateError marks an output-gate failure: the program produced a wrong
// or unexpected output.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "gate failed: " + e.msg }

func gatef(format string, args ...any) error {
	return &gateError{fmt.Sprintf(format, args...)}
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (suite-cold, suite-warm, sweep-triage, daemon-mixed)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured duration of the timed loop")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the inputs under the span recorder and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag != 0

	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "apexbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "apexbench: -seconds must be positive")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "apexbench:", err)
		return 1
	}
	cfg.root = root
	cfg.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "apexbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	env := stampEnv(root)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	res := &result{metrics: map[string]metric{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := wl.run(&cfg, res, tr); err != nil {
		fmt.Fprintf(os.Stderr, "apexbench: %s: %v\n", cfg.workload, err)
		if !isGate(err) {
			return 1
		}
		// A wrong output still reports what was measured, marked
		// incorrect, and fails the run.
		res.failed = max(res.failed, 1)
		printResult(&cfg, res)
		return 1
	}
	if tr != nil {
		if err := tr.writeSpans(filepath.Join(root, ".bench_build", "traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "apexbench: writing spans:", err)
		}
	}
	if !printResult(&cfg, res) {
		return 1
	}
	return 0
}

// printResult writes the summary to stderr and the result line to
// stdout, reporting whether the line was written.
func printResult(cfg *config, res *result) bool {
	printSummary(cfg, res)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, max(res.attempted, 1), res.failed, res.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apexbench:", err)
		return false
	}
	fmt.Println(string(line))
	return true
}

// repoRoot finds the checkout root: the working directory when it holds
// the module's go.mod and results_full.md (the driver runs from there).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, f := range []string{"go.mod", "results_full.md", "internal"} {
		if _, err := os.Stat(filepath.Join(wd, f)); err != nil {
			return "", fmt.Errorf("run from the repository root (missing %s): %w", f, err)
		}
	}
	if err := os.MkdirAll(filepath.Join(wd, ".bench_build"), 0o755); err != nil {
		return "", err
	}
	return wd, nil
}

// printSummary writes the human-readable metric table to stderr.
func printSummary(cfg *config, res *result) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: attempted %d failed %d\n",
		cfg.workload, cfg.seed, cfg.trace, res.attempted, res.failed)
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Fprintf(os.Stderr, "  %-26s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
}

// timedLoop runs iter until the measured window has elapsed (and at
// least minIters times), returning each iteration's wall time in
// seconds and their sum. Between iterations, about once per probeEvery
// and once at each end, it runs the speed probe into res; probe time
// is in the window but not in any iteration. An iteration error stops
// the loop.
func timedLoop(res *result, seconds float64, minIters int, iter func(i int) error) ([]float64, time.Duration, error) {
	var walls []float64
	var busy time.Duration
	start := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	res.probe()
	lastProbe := time.Now()
	for i := 0; len(walls) < minIters || time.Since(start) < window; i++ {
		if time.Since(lastProbe) >= probeEvery {
			res.probe()
			lastProbe = time.Now()
		}
		t0 := time.Now()
		err := iter(i)
		d := time.Since(t0)
		busy += d
		if err != nil {
			return walls, busy, err
		}
		walls = append(walls, d.Seconds())
	}
	res.probe()
	return walls, busy, nil
}

// setupMedian times the workload's set-up and returns the median over
// samples of the wall time of one set-up in seconds. Each sample runs
// batch set-ups back to back and divides, because most set-ups take
// well under a millisecond, where one clock read is mostly noise. A
// set-up returns its teardown, which runs untimed after the sample;
// the very last set-up is kept (its teardown is not called). Pending
// file writes (the driver binary, the previous run's removed scratch)
// are flushed first and the heap collected before each sample, both
// untimed, so set-up is not timed queueing behind either.
func setupMedian(samples, batch int, setup func() (teardown func() error, err error)) (float64, error) {
	var ts []float64
	syscall.Sync()
	for i := 0; i < samples; i++ {
		var teardowns []func() error
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			td, err := setup()
			if err != nil {
				return 0, err
			}
			teardowns = append(teardowns, td)
		}
		ts = append(ts, time.Since(t0).Seconds()/float64(batch))
		if i == samples-1 {
			teardowns = teardowns[:batch-1]
		}
		for _, td := range teardowns {
			if td == nil {
				continue
			}
			if err := td(); err != nil {
				return 0, err
			}
		}
	}
	return quantile(ts, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memSnap is a runtime allocation snapshot for per-iteration deltas.
type memSnap struct {
	alloc uint64
	gc    uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.NumGC}
}

// setRuntime records go.alloc_mb and go.gc_cycles per iteration,
// leaving out the speed probes' share.
func setRuntime(res *result, before, after memSnap, iters int) {
	if iters < 1 {
		iters = 1
	}
	after.alloc -= res.probeMem.alloc
	after.gc -= res.probeMem.gc
	res.set("go.alloc_mb", float64(after.alloc-before.alloc)/(1<<20)/float64(iters), "MiB", iters)
	res.set("go.gc_cycles", float64(after.gc-before.gc)/float64(iters), "count", iters)
}

// setEndToEnd records the end-to-end metrics every workload reports.
// A workload is a closed loop of client requests ("jobs"): one suite
// pass, one sweep over the grid, or one daemon job. passes are the wall
// times of the loop's iterations (a suite pass, a sweep run, a batch of
// daemon jobs); lat are per-job latencies in seconds; busy is the
// iterations' summed wall time; cells counts the evaluation cells the
// loop completed. Times and rates are brought to the speed probe's
// nominal speed (probe.go); the raw wall figures go to stderr.
func setEndToEnd(res *result, setupS float64, passes, lat []float64, busy time.Duration, cells int) {
	k := res.speedScale()
	res.reportProbe()
	fmt.Fprintf(os.Stderr, "raw wall: setup %.4g s, pass p50 %.4f s, job p50 %.2f ms p90 %.2f ms, %.3f cells/s, %.3f jobs/s\n",
		setupS, quantile(passes, 0.5), 1000*quantile(lat, 0.5), 1000*quantile(lat, 0.9),
		float64(cells)/busy.Seconds(), float64(len(lat))/busy.Seconds())
	res.set("setup_s", k*setupS, "s", 0)
	res.set("suite_s", k*quantile(passes, 0.5), "s", len(passes))
	res.set("sweep_cells_per_s", float64(cells)/(k*busy.Seconds()), "1/s", cells)
	res.set("job_p50_ms", k*1000*quantile(lat, 0.5), "ms", len(lat))
	res.set("job_p90_ms", k*1000*quantile(lat, 0.9), "ms", len(lat))
	res.set("jobs_per_s", float64(len(lat))/(k*busy.Seconds()), "1/s", len(lat))
	res.set("peak_rss_mb", peakRSSMB(), "MiB", 1)
}

// mkdir creates a fresh directory under the run's scratch directory.
func (c *config) mkdir(name string) (string, error) {
	dir := filepath.Join(c.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// mkdirs creates n fresh directories named prefix-0 .. prefix-(n-1).
func (c *config) mkdirs(prefix string, n int) ([]string, error) {
	dirs := make([]string, n)
	for i := range dirs {
		var err error
		if dirs[i], err = c.mkdir(fmt.Sprintf("%s-%d", prefix, i)); err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// isGate reports whether err is an output-gate failure.
func isGate(err error) bool {
	var g *gateError
	return errors.As(err, &g)
}

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run reports all of them on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"cgra.place_ms", "ms"}, {"cgra.place_calls", "count"}, {"cgra.route_ms", "ms"},
	{"cgra.route_nets", "count"}, {"cgra.route_hops", "count"}, {"cgra.bitstream_ms", "ms"},
	{"merge.merge_ms", "ms"}, {"merge.calls", "count"}, {"merge.units", "count"},
	{"rewrite.synth_ms", "ms"}, {"rewrite.rules", "count"}, {"rewrite.map_ms", "ms"}, {"rewrite.mapped_pes", "count"},
	{"pipeline.pe_ms", "ms"}, {"pipeline.balance_ms", "ms"}, {"pipeline.regs", "count"},
	{"mining.view_ms", "ms"}, {"mining.mine_ms", "ms"}, {"mining.calls", "count"}, {"mining.patterns", "count"},
	{"mis.rank_ms", "ms"}, {"mis.ranked", "count"},
	{"frontend.compile_ms", "ms"}, {"ir.optimize_ms", "ms"},
	{"ir.nodes_in", "count"}, {"ir.nodes_out", "count"}, {"ir.nodes_in_p10", "count"}, {"ir.nodes_in_p90", "count"},
	{"core.analyze_self_ms", "ms"}, {"core.generate_self_ms", "ms"}, {"core.evaluate_self_ms", "ms"},
	{"core.pnr_attempts", "count"}, {"core.degraded", "count"},
	{"eval.memo_hit_ratio", "ratio"}, {"eval.other_ms", "ms"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.puts", "count"}, {"store.entries", "count"},
	{"store.disk_bytes", "bytes"}, {"store.get_ms", "ms"}, {"store.decode_ms", "ms"}, {"store.put_ms", "ms"},
	{"sweep.cells", "count"}, {"sweep.oracle_frac", "ratio"}, {"sweep.failed", "count"},
	{"sweep.steals", "count"}, {"sweep.cell_gap_p50_ms", "ms"},
	{"costmodel.features_ms", "ms"}, {"costmodel.train_ms", "ms"},
	{"costmodel.train_samples", "count"}, {"costmodel.area_err_pct", "%"},
	{"serve.submit_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.run_ms", "ms"},
	{"serve.rejected", "count"}, {"serve.retries", "count"}, {"serve.journal_bytes", "bytes"},
	{"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"},
	{"frontier_regret_pct", "%"}, {"error_rate", "ratio"}, {"degraded_frac", "ratio"},
	{"verify.replayed_cells", "count"}, {"verify.equiv_designs", "count"}, {"trace.overhead_ms", "ms"},
	{"machine.probe_ms", "ms"},
}

// setLayerDefaults records every per-layer metric as 0 so layers a
// workload never reaches still appear, and the timed loop's speed-probe
// median. Per-layer times are raw wall times, not scaled to the probe.
func setLayerDefaults(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit, 0)
	}
	res.set("machine.probe_ms", 1000*quantile(res.probes, 0.5), "ms", len(res.probes))
}
