package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options configures one sweep run.
type Options struct {
	// Workers is the shard-worker count; 0 means GOMAXPROCS, 1 runs the
	// whole sweep serially. Results are identical for every value.
	Workers int
	// CacheDir, when non-empty, opens (creating if needed) the persistent
	// content-addressed store there: analyses, variants, and results
	// computed by this sweep — or by any earlier run sharing the
	// directory — are reused instead of recomputed.
	CacheDir string
	// CacheMaxBytes bounds the cache directory's payload size; when a
	// write pushes past it the oldest entries are pruned (see
	// store.SetMaxBytes). 0 means unbounded.
	CacheMaxBytes int64
	// Checkpoint, when non-empty, is the path of the atomic progress
	// snapshot. An interrupted sweep rerun with Resume picks up there.
	Checkpoint string
	// Resume loads the checkpoint before running and skips completed
	// cells. Without it an existing checkpoint is overwritten.
	Resume bool
	// FlushEvery is the number of completed cells between checkpoint
	// flushes; 0 means 8. The final flush always happens.
	FlushEvery int
	// CellTimeout bounds each cell's backend evaluation (mapping through
	// place-and-route); 0 means no per-cell deadline. A cell exceeding
	// it fails with a canceled error recorded in its CellResult — the
	// sweep continues and the run exits with the failed-cell status —
	// while the shared front-end builds (analysis, variant) run under
	// the harness's uncancellable build context: neither a cell's
	// deadline nor the run's cancellation stops one midway.
	CellTimeout time.Duration
	// Obs is the run's observability bundle; nil disables instrumentation.
	Obs *obs.Obs
	// Progress, when non-nil, receives cell completion events.
	Progress *obs.Progress
	// OnCell, when non-nil, is invoked from the collector goroutine for
	// every cell this run completes (cached cells resumed from the
	// checkpoint are not re-announced), with done counting completed
	// cells including resumed ones and total the full expanded grid.
	// Calls are serialized — the collector is the sweep's single writer —
	// and arrive in completion order, which varies with the worker count;
	// the set of events does not. Callbacks must be fast: they run on the
	// checkpoint-flush path.
	OnCell func(done, total int, r CellResult)
	// Triage, when enabled, prunes full PnR with the learned cost model:
	// the oracle runs only on a seeded exploration band plus the
	// model-ranked top fraction of each app's cells, and every pruned
	// cell is filled with the model's estimate, tagged Predicted.
	Triage TriageOptions
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) flushEvery() int {
	if o.FlushEvery > 0 {
		return o.FlushEvery
	}
	return 8
}

// Report is the outcome of a sweep run.
type Report struct {
	Grid        Grid   `json:"grid"`
	Fingerprint string `json:"fingerprint"`
	// Results holds every expanded cell in index order. Cells the run
	// never reached (interrupted sweep) have zero Variant and Err
	// "incomplete: canceled before evaluation".
	Results []CellResult `json:"results"`
	// Frontier indexes Results: the Pareto-optimal cells over
	// (min area, min energy, max routability).
	Frontier []int `json:"frontier"`
	// FrontierOracle is the frontier restricted to oracle (non-predicted)
	// cells. Only set on triaged runs; elsewhere it equals Frontier.
	FrontierOracle []int `json:"frontier_oracle,omitempty"`
	// Resumed counts cells loaded from the checkpoint; Computed counts
	// cells this run evaluated through the oracle; Predicted counts cells
	// filled from the cost model; Failed counts cells whose evaluation
	// errored; Steals counts work-stealing transfers between shards.
	Resumed   int `json:"resumed"`
	Computed  int `json:"computed"`
	Predicted int `json:"predicted,omitempty"`
	Failed    int `json:"failed"`
	Steals    int `json:"steals"`
	// Triage summarizes the triage run (model provenance, training-set
	// accuracy, feature importances); nil when triage is disabled.
	Triage *TriageReport `json:"triage,omitempty"`
	// Store carries the persistent-cache counters when a CacheDir was
	// given.
	Store *store.Stats `json:"store,omitempty"`
}

// shard is one worker's deque of pending cells. The owner pops from the
// front; thieves pop from the back, so a steal takes the cell farthest
// from the owner's current locality (cells are expanded grouped by
// front-end build).
type shard struct {
	mu    sync.Mutex
	cells []Cell
}

func (s *shard) popFront() (Cell, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cells) == 0 {
		return Cell{}, false
	}
	c := s.cells[0]
	s.cells = s.cells[1:]
	return c, true
}

func (s *shard) popBack() (Cell, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cells) == 0 {
		return Cell{}, false
	}
	c := s.cells[len(s.cells)-1]
	s.cells = s.cells[:len(s.cells)-1]
	return c, true
}

func (s *shard) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// engine carries the shared state of one Run. Every cell runs through
// the run's own eval.Harness, which builds each analysis and variant
// once, shares each mapped and balanced design and each physical
// netlist's place-and-route between cells, and layers the persistent
// store under all of it. Every cell's framework uses the harness's one
// tech model, so variants with the same op set and picks, at any
// support, are merged and synthesized once through the harness's
// generated table (core.GenerateTopPE). The postmaps table holds the
// triage's artifact-bearing post-mapping results, which bypass the
// store.
type engine struct {
	grid Grid
	opt  Options
	h    *eval.Harness

	postmaps memo.Table[*core.Result]

	steals atomic.Int64
}

// collector is the single writer of the report and the checkpoint. While
// a phase's workers run, only the phase's collector goroutine touches
// it; between phases the triage driver uses it serially. It persists
// across phases so the checkpoint flush cadence spans the whole run.
type collector struct {
	e     *engine
	rep   *Report
	fp    store.Key
	total int
	dirty map[int]CellResult
}

// record folds one completed cell into the report and checkpoint.
func (col *collector) record(r CellResult) {
	col.rep.Results[r.Index] = r
	if r.Predicted {
		col.rep.Predicted++
	} else {
		col.rep.Computed++
	}
	if r.Err != "" {
		col.rep.Failed++
		col.e.count("sweep.cells_failed", 1)
	} else {
		col.dirty[r.Index] = r
		col.e.count("sweep.cells_done", 1)
	}
	if len(col.dirty) >= col.e.opt.flushEvery() {
		col.flush()
	}
	col.e.opt.Progress.Done(1)
	if col.e.opt.OnCell != nil {
		col.e.opt.OnCell(col.done(), col.total, r)
	}
}

func (col *collector) done() int {
	return col.rep.Resumed + col.rep.Computed + col.rep.Predicted
}

func (col *collector) flush() {
	if col.e.opt.Checkpoint == "" || len(col.dirty) == 0 {
		return
	}
	if err := saveCheckpoint(col.e.opt.Checkpoint, col.fp, col.dirty); err != nil {
		col.e.logger().Warn("checkpoint flush failed", "err", err.Error())
		return
	}
	col.e.count("sweep.checkpoint_writes", 1)
	col.dirty = map[int]CellResult{}
}

// runPhase fans the pending cells over shard workers with back-stealing
// and drains completions into the collector. It returns after every
// worker has exited and the collector goroutine has flushed — so after
// it returns the collector is safe to use serially again.
func (e *engine) runPhase(ctx context.Context, pending []Cell, col *collector) {
	if len(pending) == 0 {
		return
	}
	nw := e.opt.workers()
	if nw > len(pending) {
		nw = len(pending)
	}
	shards := make([]*shard, nw)
	for i := range shards {
		lo, hi := i*len(pending)/nw, (i+1)*len(pending)/nw
		shards[i] = &shard{cells: pending[lo:hi:hi]}
	}

	completed := make(chan CellResult, nw*2)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for r := range completed {
			col.record(r)
		}
		col.flush()
	}()

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				if fault.Canceled(ctx) != nil {
					return
				}
				c, ok := shards[self].popFront()
				if !ok {
					// Steal from the richest shard's back.
					richest, max := -1, 0
					for j, s := range shards {
						if j == self {
							continue
						}
						if n := s.size(); n > max {
							richest, max = j, n
						}
					}
					if richest < 0 {
						return
					}
					c, ok = shards[richest].popBack()
					if !ok {
						continue // lost the race; rescan
					}
					e.steals.Add(1)
					e.count("sweep.steals", 1)
				}
				completed <- guardCell(c, func() CellResult { return e.evalCell(ctx, c) })
			}
		}(i)
	}
	wg.Wait()
	close(completed)
	<-collectorDone
}

// Run expands the grid, evaluates every cell not already in the
// checkpoint, and reduces to the Pareto frontier. Cell failures are
// recorded in their CellResult and do not abort the sweep; cancellation
// stops the run after the in-flight cells, flushes the checkpoint, and
// returns the cancellation error alongside the partial report.
func Run(ctx context.Context, g Grid, opt Options) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Triage.validate(g); err != nil {
		return nil, err
	}
	g = g.Normalized()
	cells := g.Cells()
	fp := runFingerprint(g, opt.Triage)
	rep := &Report{Grid: g, Fingerprint: string(fp), Results: make([]CellResult, len(cells))}

	e := newEngine(g, opt)
	if opt.CacheDir != "" {
		st, err := store.Open(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		if opt.CacheMaxBytes > 0 {
			st.SetMaxBytes(opt.CacheMaxBytes)
		}
		e.h.SetStore(st)
	}

	// Resume: preload completed cells from the checkpoint. A fingerprint
	// mismatch is a refusal, not a silent restart — the file belongs to a
	// different grid or triage configuration.
	done := map[int]CellResult{}
	if opt.Resume && opt.Checkpoint != "" {
		var matched bool
		var err error
		done, matched, err = loadCheckpoint(opt.Checkpoint, fp)
		if err != nil {
			return nil, err
		}
		if !matched {
			return nil, fmt.Errorf("sweep: checkpoint %s was written by a different sweep configuration (grid, registry, or triage flags changed); refusing to resume — delete it or drop -resume to start over", opt.Checkpoint)
		}
	}
	var pending []Cell
	for _, c := range cells {
		if r, ok := done[c.Index]; ok {
			rep.Results[c.Index] = r
			rep.Resumed++
			continue
		}
		rep.Results[c.Index] = CellResult{Cell: c, Err: "incomplete: canceled before evaluation"}
		pending = append(pending, c)
	}
	e.count("sweep.cells_total", int64(len(cells)))
	e.count("sweep.cells_resumed", int64(rep.Resumed))
	opt.Progress.Add(len(pending))

	col := &collector{e: e, rep: rep, fp: fp, total: len(cells), dirty: map[int]CellResult{}}
	if opt.Triage.Enabled {
		e.runTriage(ctx, rep, cells, pending, col)
	} else {
		e.runPhase(ctx, pending, col)
	}
	col.flush()
	rep.Steals = int(e.steals.Load())

	if st := e.h.Store(); st != nil {
		s := st.Stats()
		rep.Store = &s
	}
	if err := fault.Canceled(ctx); err != nil {
		return rep, fmt.Errorf("sweep: interrupted (%d/%d cells done, checkpoint %q): %w",
			col.done()-rep.Failed, len(cells), opt.Checkpoint, err)
	}
	rep.Frontier = Pareto(rep.Results)
	if opt.Triage.Enabled {
		rep.FrontierOracle = ParetoOracle(rep.Results)
	}
	return rep, nil
}

func newEngine(g Grid, opt Options) *engine {
	h := eval.NewHarness()
	h.SetObs(opt.Obs)
	h.CellTimeout = opt.CellTimeout
	e := &engine{grid: g, opt: opt, h: h}
	var reg *obs.Registry
	if opt.Obs != nil {
		reg = opt.Obs.Metrics
	}
	e.postmaps.Instrument("postmaps", reg)
	return e
}

// count bumps an observability counter when a registry is attached.
func (e *engine) count(name string, n int64) {
	if e.opt.Obs != nil && e.opt.Obs.Metrics != nil {
		e.opt.Obs.Metrics.Counter(name).Add(n)
	}
}

func (e *engine) logger() interface {
	Warn(msg string, args ...any)
} {
	if e.opt.Obs != nil && e.opt.Obs.Logger != nil {
		return e.opt.Obs.Logger
	}
	return obs.Logger(context.Background())
}

// frameworkFor builds the per-cell framework: the paper defaults with
// the cell's mining support, fabric size, and placement seed applied,
// over the harness's one tech model. Frameworks are immutable after
// construction, so each cell gets its own; the fabric is tiny.
func (e *engine) frameworkFor(c Cell) *core.Framework {
	fw := core.New()
	fw.Tech = e.h.FW.Tech
	fw.MinSupport = c.Support
	fw.Fabric = cgra.NewFabric(c.FabricW, c.FabricH)
	fw.PlaceSeed = c.Seed
	// Shard workers already saturate the machine; keep each cell's miner
	// serial (the miner's output is worker-count-invariant either way).
	fw.MineWorkers = 1
	return fw
}

// variant returns the cell's specialized PE, built once per run for
// the cells sharing (app, support, k).
func (e *engine) variant(c Cell, app *apps.App, fw *core.Framework) (*core.PEVariant, error) {
	name := c.VariantName()
	return e.h.VariantFor(fw, name, func(ctx context.Context) (*core.PEVariant, error) {
		return fw.GenerateTopPE(ctx, e.h.GenMemo(), name, app.UsedOps(), e.h.AnalysisFor(fw, app), c.K)
	})
}

// guardCell runs one cell's evaluation behind a recover boundary: a
// panic becomes the cell's error instead of crashing the process (apexd
// runs sweeps in-process).
func guardCell(c Cell, eval func() CellResult) (res CellResult) {
	if err := fault.Guard("sweep: cell "+c.String(), func() error {
		res = eval()
		return nil
	}); err != nil {
		res = CellResult{Cell: c, Variant: c.VariantName(), Err: err.Error()}
	}
	return res
}

// evalCell evaluates one grid point end to end.
func (e *engine) evalCell(ctx context.Context, c Cell) CellResult {
	res := CellResult{Cell: c, Variant: c.VariantName()}
	app, err := apps.ByName(c.App)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	fw := e.frameworkFor(c)
	v, err := e.variant(c, app, fw)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	r, err := e.h.EvaluateFor(ctx, fw, app, v, e.grid.PnR, e.grid.Pipelined)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.NumPEs = r.NumPEs
	res.TotalArea = r.TotalArea
	res.TotalEnergy = r.TotalEnergy
	res.RuntimeMS = r.RuntimeMS
	res.PerfPerMM2 = r.PerfPerMM2
	res.Degraded = r.Degraded
	switch {
	case r.Routed:
		res.Routability = 1
	case r.Degraded:
		res.Routability = 0
	default:
		res.Routability = 0.5 // analytical post-mapping estimate
	}
	return res
}
