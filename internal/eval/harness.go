// Package eval regenerates every table and figure of the paper's
// evaluation (Section 5): the camera-pipeline specialization ladder
// (Fig. 11, Table 2), the image-processing domain PEs (Fig. 12), the
// unseen-application generalization study (Fig. 13), post-mapping and
// post-place-and-route comparisons (Fig. 14, Fig. 15), the pipelining
// study (Fig. 16, Table 3), and the accelerator comparisons (Fig. 17,
// Fig. 18). Each driver returns typed results plus a renderable table
// with the same rows/series the paper reports.
package eval

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/store"
)

// Harness caches analyses, their pattern selections, PE variants and
// the merges and rules they are generated from, evaluation results,
// mapped and balanced designs, and place-and-route layouts across
// experiments, so the full suite runs each expensive step once. All methods are safe for concurrent use:
// the caches are singleflight memo tables (duplicate keys compute
// exactly once even under contention), and the figure drivers fan their
// independent (app, variant, pnr, pipelined) cells out over a bounded
// worker pool before assembling the tables in a fixed serial order — so
// worker count and completion order can never change reported numbers
// or row order.
type Harness struct {
	FW *core.Framework
	// FastMode skips place-and-route everywhere (post-mapping numbers
	// only) — used by the unit tests; the benchmark harness runs full.
	FastMode bool
	// Workers bounds how many backend evaluations run concurrently when
	// a figure driver fans out. 0 means GOMAXPROCS; 1 reproduces the
	// fully serial behaviour.
	Workers int
	// KeepGoing makes fan-outs run every cell even after failures: a
	// failing cell is recorded in Report instead of aborting the batch,
	// drivers whose cells all succeeded assemble their tables exactly as
	// in a clean run, and Suite skips (rather than fails on) tables with
	// poisoned cells. Cancellation of the run's context still aborts.
	KeepGoing bool
	// CellTimeout bounds each evaluation cell's wall-clock time; 0 means
	// no per-cell deadline. A cell exceeding it fails with
	// fault.ErrCanceled (wrapping context.DeadlineExceeded) without
	// affecting other cells.
	CellTimeout time.Duration
	// Faults is the deterministic fault-injection plan for tests; nil
	// injects nothing.
	Faults *FaultPlan
	// Report collects per-cell failures and degradations (always, not
	// only under KeepGoing).
	Report *Report
	// Progress, when non-nil, receives cell start/finish events for the
	// CLI liveness line. It never affects results.
	Progress *obs.Progress

	// obs is the run's observability bundle (SetObs); nil keeps every
	// instrumentation point on its zero-cost disabled path.
	obs *obs.Obs

	analyses memo.Table[*core.Analysis]
	// selections holds the canonical codes of each (app, k) pattern
	// selection a table prints (PickCodes).
	selections memo.Table[[]string]
	variants   memo.Table[*core.PEVariant]
	results    memo.Table[*core.Result]
	// designs shares each (app, variant) mapping and each (app, variant,
	// PE latency) balance between the cells that need it, and layouts
	// shares place-and-route between cells whose balanced designs are the
	// same physical netlist, keyed by the netlist digest core computes;
	// both serve core.Memo (evalMemo).
	designs memo.Table[*core.Design]
	layouts memo.Table[*core.Layout]
	// generated holds the merged datapath prefixes, built PEs and
	// synthesized rules of the variants generated from analyses, under
	// content keys (core.GenMemo): variants that differ only in name,
	// such as one app's at two supports that pick the same patterns, are
	// merged and synthesized once. Compile jobs (internal/serve) bypass
	// it: user source is unbounded input.
	generated memo.Table[*core.Generated]
	// variantKeys holds each variant's store.VariantKey by variantKeyOf,
	// so the result keys of a pass hash each variant key once. It is
	// made on first use: a pointer keeps Harness in its allocation size
	// class, and a pass without a store never needs it.
	variantKeys atomic.Pointer[sync.Map]

	// store is the optional persistent content-addressed cache layered
	// under the memo tables (SetStore); nil keeps the harness in-memory.
	store *store.Store
}

// NewHarness returns a harness with the paper's defaults.
func NewHarness() *Harness {
	h := &Harness{FW: core.New(), Report: &Report{}}
	h.layouts.ForgetCanceled = true
	return h
}

// SetObs installs the run's observability bundle on the harness and its
// memo tables. Call it before the first evaluation; nil disables
// everything (the default).
func (h *Harness) SetObs(o *obs.Obs) {
	h.obs = o
	var reg *obs.Registry
	if o != nil {
		reg = o.Metrics
	}
	h.analyses.Instrument("analyses", reg)
	h.selections.Instrument("selections", reg)
	h.variants.Instrument("variants", reg)
	h.results.Instrument("results", reg)
	h.designs.Instrument("designs", reg)
	h.layouts.Instrument("layouts", reg)
	h.generated.Instrument("generated", reg)
}

// ResetMemos drops every in-memory memoized analysis, selection,
// variant, result, design, layout, generated datapath, PE and rule, and
// variant store key.
// A long-running process (the apexd daemon) calls it periodically so
// the in-process tables cannot grow without bound; with a persistent
// store attached the next lookups reload from disk, so the cost is
// deserialization, not recomputation. Safe to call concurrently
// with evaluations: in-flight builds complete against their detached
// entries and their callers observe them normally.
func (h *Harness) ResetMemos() {
	h.analyses.Reset()
	h.selections.Reset()
	h.variants.Reset()
	h.results.Reset()
	h.designs.Reset()
	h.layouts.Reset()
	h.generated.Reset()
	h.variantKeys.Store(nil)
}

// ForgetResult drops one evaluation cell from the results memo, and the
// mapped and balanced designs of its (app, variant) pair from the
// designs memo, so the next Evaluate of the same cell runs (or reloads)
// fresh. The memo deliberately caches errors — within one deterministic run a retry
// cannot succeed — but a supervisor that re-enqueues failed jobs (with
// new options, after transient injected faults, or after a timeout)
// needs to invalidate the cached failure first. The arguments mirror
// Evaluate's identity, including the FastMode pnr override.
func (h *Harness) ForgetResult(appName, variantName string, pnr, pipelined bool) {
	if h.FastMode {
		pnr = false
	}
	h.results.Forget(fmt.Sprintf("%s|%s|%v|%v", appName, variantName, pnr, pipelined))
	h.designs.ForgetPrefix(core.DesignKeyPrefix(appName, variantName))
}

// MemoStats snapshots the cache-effectiveness counters of the memo
// tables, keyed by table name.
func (h *Harness) MemoStats() map[string]memo.Stats {
	return map[string]memo.Stats{
		"analyses":   h.analyses.Stats(),
		"selections": h.selections.Stats(),
		"variants":   h.variants.Stats(),
		"results":    h.results.Stats(),
		"designs":    h.designs.Stats(),
		"layouts":    h.layouts.Stats(),
		"generated":  h.generated.Stats(),
	}
}

// buildCtx is the context memoized builds run under: the observability
// bundle attached to a fresh background context. Memoized work runs in
// whichever racing goroutine reaches the table first, so parenting its
// spans under that goroutine's current span would make the span tree
// depend on scheduling; rooting every build at the run span keeps the
// tree identical across worker counts. It also detaches builds from any
// one caller's deadline — shared front-end work runs to completion.
func (h *Harness) buildCtx() context.Context {
	return h.obs.Context(context.Background())
}

// Analysis returns the mined analysis of an application under the
// harness's framework, cached.
func (h *Harness) Analysis(app *apps.App) *core.Analysis {
	return h.AnalysisFor(h.FW, app)
}

// AnalysisFor returns the mined analysis of an application under fw,
// memoized per (app, support): frameworks sharing a harness must agree
// on every other mining setting. Analyses and variant builds are pure
// CPU-bound front-end work shared by many cells, so they run to
// completion regardless of any one cell's deadline (the memo wait uses
// a background context).
func (h *Harness) AnalysisFor(fw *core.Framework, app *apps.App) *core.Analysis {
	key := fmt.Sprintf("%s|s%d", app.Name, fw.MinSupport)
	// buildCtx is uncancellable, so Analyze's only error — cancellation —
	// cannot occur here.
	a, _ := h.analyses.Do(context.Background(), key, func() (*core.Analysis, error) {
		if h.useStore() {
			if a, ok := h.loadAnalysis(fw, app); ok {
				return a, nil
			}
		}
		a, err := fw.Analyze(h.buildCtx(), app)
		if err == nil && h.useStore() {
			h.saveAnalysis(fw, app, a)
		}
		return a, err
	})
	return a
}

// PickCodes returns the canonical codes of the first k patterns
// core.SelectPatterns picks from app's analysis under the harness's
// framework, in pick order, memoized per (app, k); callers must not
// modify the slice. With a store attached the codes are stored under
// store.SelectionKey, so a warm pass reads them back without loading
// the analysis or running a selection round.
func (h *Harness) PickCodes(app *apps.App, k int) []string {
	key := fmt.Sprintf("%s|%d", app.Name, k)
	codes, _ := h.selections.Do(context.Background(), key, func() ([]string, error) {
		if h.useStore() {
			if codes, ok := h.loadSelection(h.FW, app, k); ok {
				return codes, nil
			}
		}
		var codes []string
		for _, r := range core.SelectPatterns(h.Analysis(app), k) {
			codes = append(codes, r.Pattern.Code)
		}
		if h.useStore() {
			h.saveSelection(h.FW, app, k, codes)
		}
		return codes, nil
	})
	return codes
}

// Variant builds (or returns cached) a named PE variant under the
// harness's framework.
func (h *Harness) Variant(name string, build func(ctx context.Context) (*core.PEVariant, error)) (*core.PEVariant, error) {
	return h.VariantFor(h.FW, name, build)
}

// VariantFor builds (or returns cached) a named PE variant, stored
// under fw's front-end options. Names must be unique per composition
// across every framework sharing the harness. The build function
// receives the harness's build context (observability attached, no
// caller deadline — see buildCtx).
func (h *Harness) VariantFor(fw *core.Framework, name string, build func(ctx context.Context) (*core.PEVariant, error)) (*core.PEVariant, error) {
	v, err := h.variants.Do(context.Background(), name, func() (*core.PEVariant, error) {
		if h.useStore() {
			if v, ok := h.loadVariant(fw, name); ok {
				return v, nil
			}
		}
		v, err := build(h.buildCtx())
		if err == nil && h.useStore() {
			h.saveVariant(fw, v)
		}
		return v, err
	})
	if err != nil {
		return nil, fmt.Errorf("eval: variant %s: %w", name, err)
	}
	return v, nil
}

// Baseline returns the general-purpose baseline PE.
func (h *Harness) Baseline() (*core.PEVariant, error) {
	return h.Variant("baseline", h.FW.BaselinePE)
}

// SpecializedPE returns the most specialized per-application PE (the
// paper's "PE Spec"): the app-restricted baseline merged with the top
// three subgraphs.
func (h *Harness) SpecializedPE(app *apps.App) (*core.PEVariant, error) {
	return h.Variant("spec_"+app.Name, func(ctx context.Context) (*core.PEVariant, error) {
		return h.FW.GenerateTopPE(ctx, h.GenMemo(), "spec_"+app.Name, app.UsedOps(), h.Analysis(app), 3)
	})
}

// LadderPE returns camera-style "PE k": the app-restricted baseline plus
// the top (k-1) subgraphs. k=1 is PE 1.
func (h *Harness) LadderPE(app *apps.App, k int) (*core.PEVariant, error) {
	name := fmt.Sprintf("%s_pe%d", app.Name, k)
	return h.Variant(name, func(ctx context.Context) (*core.PEVariant, error) {
		return h.FW.GenerateTopPE(ctx, h.GenMemo(), name, app.UsedOps(), h.Analysis(app), k-1)
	})
}

// DomainPE composes a domain PE from several applications: union of their
// operation sets plus perApp top subgraphs from each (cameraExtra adds
// more camera subgraphs — the paper's unbalanced PE IP3).
func (h *Harness) DomainPE(name string, members []*apps.App, perApp int, extra map[string]int) (*core.PEVariant, error) {
	return h.Variant(name, func(ctx context.Context) (*core.PEVariant, error) {
		var named []rewrite.NamedPattern
		seen := map[string]bool{}
		for _, a := range members {
			n := perApp + extra[a.Name]
			chosen := core.SelectPatterns(h.Analysis(a), n)
			for i, r := range chosen {
				code := r.Pattern.Code
				if seen[code] {
					continue
				}
				seen[code] = true
				np, err := rewrite.PatternFromMined(r.Pattern.Graph,
					fmt.Sprintf("%s_%s%d", name, a.Name, i))
				if err != nil {
					return nil, err
				}
				named = append(named, np)
			}
		}
		return h.FW.GeneratePEFromPatterns(ctx, name, core.UnionOps(members), named)
	})
}

// PEIP returns the paper's image-processing domain PE (one subgraph per
// analyzed IP application).
func (h *Harness) PEIP() (*core.PEVariant, error) {
	return h.DomainPE("pe_ip", apps.AnalyzedIP(), 1, nil)
}

// PEIP2 merges one more subgraph per application (Fig. 12's "too many
// subgraphs" point).
func (h *Harness) PEIP2() (*core.PEVariant, error) {
	return h.DomainPE("pe_ip2", apps.AnalyzedIP(), 2, nil)
}

// PEIP3 specializes toward camera at the others' expense (Fig. 12's
// unbalanced merge).
func (h *Harness) PEIP3() (*core.PEVariant, error) {
	return h.DomainPE("pe_ip3", apps.AnalyzedIP(), 1, map[string]int{"camera": 2})
}

// PEML returns the machine-learning domain PE.
func (h *Harness) PEML() (*core.PEVariant, error) {
	return h.DomainPE("pe_ml", apps.AnalyzedML(), 2, nil)
}

// Evaluate runs (and caches) the backend for an (app, variant) pair
// under the harness's framework. pnr=false evaluates post-mapping only;
// pipelined=false disables PE and application pipelining (Fig. 16's
// "pre-pipelining" rows). The results table runs each cell once, behind
// its recover boundary, and failures and degradations are recorded in
// Report.
func (h *Harness) Evaluate(ctx context.Context, app *apps.App, v *core.PEVariant, pnr, pipelined bool) (*core.Result, error) {
	if h.FastMode {
		pnr = false
	}
	key := fmt.Sprintf("%s|%s|%v|%v", app.Name, v.Name, pnr, pipelined)
	r, err := h.results.Do(ctx, key, func() (*core.Result, error) {
		return h.EvaluateFor(ctx, h.FW, app, v, pnr, pipelined)
	})
	switch {
	case err != nil:
		if h.Report.record(Failure{Cell: key, Kind: classify(err), Err: err.Error()}) {
			h.logger().Warn("evaluation cell failed",
				"cell", key, "kind", classify(err), "err", err.Error())
		}
	case r.Degraded:
		h.Report.record(Failure{Cell: key, Kind: "degraded", Err: r.DegradedReason})
	}
	return r, err
}

// EvaluateFor evaluates app on v under fw, unmemoized: the store serves
// the result when it holds one, and a computed result is written back.
// The options travel to the framework as explicit core.EvalOptions, so
// concurrent evaluations cannot interfere and a failing evaluation
// leaves no state behind that could change later results; the designs
// and layouts it builds are shared through the harness's memo.
//
// The evaluation runs under its own deadline when CellTimeout is set
// and through the fault-injection plan when one is installed — so a
// hanging or non-converging cell surfaces as that cell's typed error
// while every other cell completes normally.
func (h *Harness) EvaluateFor(ctx context.Context, fw *core.Framework, app *apps.App, v *core.PEVariant, pnr, pipelined bool) (*core.Result, error) {
	if h.useStore() {
		if r, ok := h.loadResult(fw, app, v, pnr, pipelined); ok {
			return r, nil
		}
	}
	// Re-root the observability context: cancellation still flows from
	// the caller, and any per-request bundle the caller threaded through
	// ctx (the daemon's per-job tracer and delta registry) is kept, but
	// the "evaluate" span re-roots at its tracer's root, so the span tree
	// does not depend on which goroutine evaluates the cell.
	// Facilities the caller did not carry fall back to the harness bundle.
	cctx := h.obs.Reattach(ctx)
	if h.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(cctx, h.CellTimeout)
		defer cancel()
	}
	opt := core.EvalOptions{PnR: pnr, Pipelined: pipelined, Memo: h.Memo()}
	if h.Faults != nil {
		cell := app.Name + "|" + v.Name
		if err := h.Faults.fire("evaluate", cell); err != nil {
			return nil, err
		}
		opt.Hook = func(stage string) error { return h.Faults.fire(stage, cell) }
	}
	r, err := fw.Evaluate(cctx, app, v, opt)
	if err == nil && h.useStore() {
		h.saveResult(fw, app, v, pnr, pipelined, r)
	}
	return r, err
}

// Memo returns the core.Memo every harness evaluation uses: the designs
// and layouts tables.
func (h *Harness) Memo() core.Memo { return evalMemo{h} }

// GenMemo returns the core.GenMemo every harness variant generated from
// an analysis uses: the generated table. Its keys name the tech model by
// address, so frameworks sharing the harness share exactly the
// generation work their models and op sets agree on.
func (h *Harness) GenMemo() core.GenMemo { return evalMemo{h} }

// evalMemo serves core.Memo from the harness's designs and layouts
// tables, and core.GenMemo from its generated table. A layout build runs
// under the evaluating cell's context, so its deadline and cancellation
// apply, re-rooted like the cell's own evaluate span: the span tree and
// the invariant metrics do not depend on which cell built the layout
// first. The layouts table drops
// canceled builds, so one cell's timeout never reaches a sibling
// waiting on the same netlist. Design keys name the (app, variant)
// pair and layout keys digest the fabric and placement seed, so cells
// of different frameworks share exactly what they agree on. Design
// builds take no context and record no spans.
type evalMemo struct{ h *Harness }

func (m evalMemo) Design(ctx context.Context, key string, build func() (*core.Design, error)) (*core.Design, error) {
	return m.h.designs.Do(ctx, key, build)
}

func (m evalMemo) Layout(ctx context.Context, key string, build func(context.Context) (*core.Layout, error)) (*core.Layout, error) {
	return m.h.layouts.Do(ctx, key, func() (*core.Layout, error) {
		return build(m.h.obs.Reattach(ctx))
	})
}

func (m evalMemo) Generated(key string, build func() (*core.Generated, error)) (*core.Generated, error) {
	return m.h.generated.Do(context.Background(), key, build)
}

// logger returns the harness's structured logger (never nil).
func (h *Harness) logger() *slog.Logger {
	if h.obs != nil && h.obs.Logger != nil {
		return h.obs.Logger
	}
	return obs.Logger(context.Background())
}

// workers resolves the effective worker-pool size.
func (h *Harness) workers() int {
	if h.Workers > 0 {
		return h.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallel runs the jobs on a bounded worker pool and returns the
// lowest-index error (matching what a serial run would report first).
// With one worker the jobs run serially in order. Under KeepGoing every
// job runs regardless of other jobs' failures (the per-cell errors are
// already in Report) and only a cancellation of ctx is returned; without
// it, the serial path stops at the first failure as before.
func (h *Harness) parallel(ctx context.Context, jobs []func() error) error {
	n := h.workers()
	if n > len(jobs) {
		n = len(jobs)
	}
	// Scheduling metrics live under the sched.* prefix: they describe the
	// run (queue wait, run time, concurrency watermark), are inherently
	// worker-count dependent, and are excluded from the determinism
	// comparisons. reg==nil keeps the hot path free of clock reads.
	var reg *obs.Registry
	if h.obs != nil {
		reg = h.obs.Metrics
	}
	if reg != nil {
		reg.Counter("sched.jobs").Add(int64(len(jobs)))
		reg.Gauge("sched.workers").Set(int64(n))
	}
	if n <= 1 {
		for _, job := range jobs {
			start := time.Now()
			err := job()
			if reg != nil {
				reg.Histogram("sched.run_us").Observe(time.Since(start).Microseconds())
			}
			if err != nil && !h.KeepGoing {
				return err
			}
			if err := fault.Canceled(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, n)
	var active atomic.Int64
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		var queued time.Time
		if reg != nil {
			queued = time.Now()
		}
		sem <- struct{}{}
		go func(i int, job func() error) {
			defer wg.Done()
			defer func() { <-sem }()
			var start time.Time
			if reg != nil {
				start = time.Now()
				reg.Histogram("sched.queue_wait_us").Observe(start.Sub(queued).Microseconds())
				reg.Gauge("sched.peak_goroutines").Max(active.Add(1))
				defer func() {
					active.Add(-1)
					reg.Histogram("sched.run_us").Observe(time.Since(start).Microseconds())
				}()
			}
			errs[i] = job()
		}(i, job)
	}
	wg.Wait()
	if err := fault.Canceled(ctx); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil && !h.KeepGoing {
			return err
		}
	}
	return nil
}

// evalCell names one independent unit of figure work: evaluate one
// application on one (lazily resolved) PE variant at one level.
type evalCell struct {
	app       *apps.App
	variant   func() (*core.PEVariant, error)
	pnr       bool
	pipelined bool
}

// prefetch warms the caches for a set of evaluation cells on the worker
// pool. Each cell resolves its variant through the singleflight variant
// cache first, so duplicate variant builds collapse too. The figure
// drivers call this before assembling rows serially from the (now warm)
// caches: completion order cannot affect row order or numbers.
func (h *Harness) prefetch(ctx context.Context, cells []evalCell) error {
	h.Progress.Add(len(cells))
	jobs := make([]func() error, len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func() error {
			defer h.Progress.Done(1)
			v, err := c.variant()
			if err != nil {
				return err
			}
			_, err = h.Evaluate(ctx, c.app, v, c.pnr, c.pipelined)
			return err
		}
	}
	return h.parallel(ctx, jobs)
}

// DomainVariantFor returns PE IP for image apps and PE ML for ML apps.
func (h *Harness) DomainVariantFor(app *apps.App) (*core.PEVariant, error) {
	if app.Domain == apps.MachineLearning {
		return h.PEML()
	}
	return h.PEIP()
}

// Table is a renderable experiment result.
type Table struct {
	ID      string // e.g. "Table 2", "Fig. 11"
	Title   string
	Headers []string
	Rows    [][]string
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }

// pct renders a reduction percentage vs a reference.
func pct(ref, val float64) string {
	if ref == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (val-ref)/ref*100)
}

// sortedOpNames renders an op list.
func sortedOpNames(ops []ir.Op) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name()
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}
