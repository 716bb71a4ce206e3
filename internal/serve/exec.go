package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Result payloads. Each job kind marshals a fixed struct with
// json.Marshal, whose field order is the declaration order below — so a
// job re-run from the journal (against the content-addressed store)
// reproduces byte-identical Result bytes, which the churn test asserts.

// patternSummary is one ranked mined subgraph.
type patternSummary struct {
	Rank        int    `json:"rank"`
	Code        string `json:"code"`
	ComputeOps  int    `json:"compute_ops"`
	Occurrences int    `json:"occurrences"`
	MISSize     int    `json:"mis_size"`
}

// analyzeResult is the analyze-job payload.
type analyzeResult struct {
	App        string           `json:"app"`
	ComputeOps int              `json:"compute_ops"`
	MinSupport int              `json:"min_support"`
	Mined      int              `json:"mined"`
	Patterns   []patternSummary `json:"patterns"`
}

// peResult is the generate-job payload.
type peResult struct {
	Variant         string  `json:"variant"`
	FUs             int     `json:"fus"`
	Consts          int     `json:"consts"`
	Inputs          int     `json:"inputs"`
	Muxes           int     `json:"muxes"`
	CoreAreaUM2     float64 `json:"core_area_um2"`
	BaselineAreaUM2 float64 `json:"baseline_area_um2"`
	PipelineStages  int     `json:"pipeline_stages"`
	PeriodPS        float64 `json:"period_ps"`
	ConfigBits      int     `json:"config_bits"`
	Rules           int     `json:"rules"`
	Unimplementable int     `json:"unimplementable"`
	MergedSubgraphs int     `json:"merged_subgraphs"`
}

// evalResult is the evaluate-job payload: the scalar roll-ups of a
// core.Result (the Mapped/Balanced/Routing artifacts are in-process
// objects and never serialize).
type evalResult struct {
	App     string `json:"app"`
	Variant string `json:"variant"`

	NumPEs       int `json:"num_pes"`
	NumMems      int `json:"num_mems"`
	NumRFs       int `json:"num_rfs"`
	NumIOs       int `json:"num_ios"`
	NumRegs      int `json:"num_regs"`
	RoutingTiles int `json:"routing_tiles"`

	PECoreAreaUM2 float64 `json:"pe_core_area_um2"`
	TotalAreaUM2  float64 `json:"total_area_um2"`
	TotalEnergyPJ float64 `json:"total_energy_pj"`

	PeriodPS     float64 `json:"period_ps"`
	LatencyCyc   int     `json:"latency_cyc"`
	CyclesPerRun float64 `json:"cycles_per_run"`
	RuntimeMS    float64 `json:"runtime_ms"`
	PerfPerMM2   float64 `json:"perf_per_mm2"`

	Routed         bool   `json:"routed"`
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	PnRAttempts    int    `json:"pnr_attempts,omitempty"`
}

func summarizeResult(r *core.Result) evalResult {
	return evalResult{
		App:     r.App,
		Variant: r.Variant,

		NumPEs:       r.NumPEs,
		NumMems:      r.NumMems,
		NumRFs:       r.NumRFs,
		NumIOs:       r.NumIOs,
		NumRegs:      r.NumRegs,
		RoutingTiles: r.RoutingTiles,

		PECoreAreaUM2: r.PECoreArea,
		TotalAreaUM2:  r.TotalArea,
		TotalEnergyPJ: r.TotalEnergy,

		PeriodPS:     r.PeriodPS,
		LatencyCyc:   r.LatencyCyc,
		CyclesPerRun: r.CyclesPerRun,
		RuntimeMS:    r.RuntimeMS,
		PerfPerMM2:   r.PerfPerMM2,

		Routed:         r.Routed,
		Degraded:       r.Degraded,
		DegradedReason: r.DegradedReason,
		PnRAttempts:    r.PnRAttempts,
	}
}

// compileResult is the compile-job payload.
type compileResult struct {
	Kernel     string     `json:"kernel"`
	Nodes      int        `json:"nodes"`
	ComputeOps int        `json:"compute_ops"`
	RawOps     int        `json:"raw_ops"` // before ir.Optimize
	Mined      int        `json:"mined"`
	Eval       evalResult `json:"eval"`
}

// execute dispatches one attempt of a job and returns its payload.
func (s *Server) execute(ctx context.Context, j *Job) (json.RawMessage, error) {
	switch j.Kind {
	case KindAnalyze:
		return s.execAnalyze(ctx, j.Params)
	case KindGenerate:
		return s.execGenerate(ctx, j.Params)
	case KindEvaluate:
		return s.execEvaluate(ctx, j.Params)
	case KindSweep:
		return s.execSweep(ctx, j)
	case KindCompile:
		return s.execCompile(ctx, j.Params)
	default:
		return nil, fault.Invariantf("unknown job kind %q", j.Kind)
	}
}

func (s *Server) execAnalyze(ctx context.Context, p Params) (json.RawMessage, error) {
	app, err := apps.ByName(p.App)
	if err != nil {
		return nil, fault.Invariantf("analyze: %v", err)
	}
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	an := s.h.Analysis(app)
	if an == nil {
		return nil, fault.Invariantf("analyze: no analysis for %s", p.App)
	}
	out := analyzeResult{
		App:        app.Name,
		ComputeOps: app.ComputeOps(),
		MinSupport: s.h.FW.EffectiveMinSupport(app),
		Mined:      len(an.Ranked),
	}
	top := p.Top
	if top > len(an.Ranked) {
		top = len(an.Ranked)
	}
	for i := 0; i < top; i++ {
		r := an.Ranked[i]
		out.Patterns = append(out.Patterns, patternSummary{
			Rank:        i + 1,
			Code:        r.Pattern.Code,
			ComputeOps:  r.Pattern.ComputeSize(),
			Occurrences: len(r.Occurrences),
			MISSize:     r.MISSize,
		})
	}
	return json.Marshal(&out)
}

// variantName is the canonical PE name for a job's (app, k):
// "baseline" for k=0, else "<app>_k<k>". forgetMemo relies on the same
// mapping to invalidate exactly the retried cell.
func (s *Server) variantName(p Params) string {
	if p.K == 0 {
		return "baseline"
	}
	return fmt.Sprintf("%s_k%d", p.App, p.K)
}

// variantFor resolves (building if needed) the PE a job evaluates.
func (s *Server) variantFor(p Params) (*core.PEVariant, error) {
	if p.K == 0 {
		return s.h.Baseline()
	}
	app, err := apps.ByName(p.App)
	if err != nil {
		return nil, fault.Invariantf("%v", err)
	}
	name := s.variantName(p)
	return s.h.Variant(name, func(ctx context.Context) (*core.PEVariant, error) {
		return s.h.FW.GenerateTopPE(ctx, s.h.GenMemo(), name, app.UsedOps(), s.h.Analysis(app), p.K)
	})
}

func (s *Server) execGenerate(ctx context.Context, p Params) (json.RawMessage, error) {
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	v, err := s.variantFor(p)
	if err != nil {
		return nil, err
	}
	m := s.h.FW.Tech
	out := peResult{
		Variant:         v.Name,
		CoreAreaUM2:     v.CoreArea(m),
		BaselineAreaUM2: m.BaselinePECore().Area,
		ConfigBits:      v.Spec.ConfigBits(),
		MergedSubgraphs: p.K,
	}
	c := v.Spec.DP.Count()
	out.FUs, out.Consts, out.Inputs, out.Muxes = c.FUs, c.Consts, c.Inputs, c.Muxes
	if v.Pipelined != nil {
		out.PipelineStages = v.Pipelined.Stages
		out.PeriodPS = v.Pipelined.PeriodPS
	}
	if rs := v.RuleSet(); rs != nil {
		out.Rules = len(rs.Rules)
		out.Unimplementable = len(rs.Failed)
	}
	return json.Marshal(&out)
}

func (s *Server) execEvaluate(ctx context.Context, p Params) (json.RawMessage, error) {
	app, err := apps.ByName(p.App)
	if err != nil {
		return nil, fault.Invariantf("evaluate: %v", err)
	}
	v, err := s.variantFor(p)
	if err != nil {
		return nil, err
	}
	r, err := s.h.Evaluate(ctx, app, v, p.PnR, p.Pipelined)
	if err != nil {
		return nil, err
	}
	out := summarizeResult(r)
	return json.Marshal(&out)
}

// execSweep runs a whole grid as one job. The sweep shares the daemon's
// cache directory (its own store handle — the store is multi-process
// safe) but runs serially inside the job's worker slot, so one giant
// sweep cannot monopolize the pool beyond its fair share. The
// observability bundle comes from the job's context (the per-job
// tracer/registry runJob installed), and each completed cell is
// announced on the event stream when anyone is listening.
func (s *Server) execSweep(ctx context.Context, j *Job) (json.RawMessage, error) {
	opts := sweep.Options{
		Workers:  1,
		CacheDir: s.cfg.CacheDir,
		Obs:      obs.FromContext(ctx),
	}
	if p := j.Params; p.triageEnabled() {
		opts.Triage = sweep.TriageOptions{
			Enabled: true,
			Top:     p.TriageTop,
			Explore: p.TriageExplore,
			Seed:    p.TriageSeed,
		}
	}
	if s.events != nil {
		id := j.ID
		opts.OnCell = func(done, total int, r sweep.CellResult) {
			if !s.events.active() {
				return
			}
			s.events.publish(Event{Type: "sweep", Sweep: &SweepEvent{
				JobID: id, Done: done, Total: total,
				Cell: r.Index, App: r.App, Variant: r.Variant, Err: r.Err,
			}})
		}
	}
	rep, err := sweep.Run(ctx, *j.Params.Grid, opts)
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		// A sweep with poisoned cells is a retryable condition only if the
		// cells themselves were; the report carries per-cell errors, so
		// surface the report and let the client decide.
		s.logger().Warn("sweep finished with failed cells", "failed", rep.Failed)
	}
	return json.Marshal(rep)
}

// execCompile runs the full custom-kernel path: frontend → optimizer →
// mining → PE generation → post-mapping evaluation. It deliberately
// bypasses the harness memo tables: user source is unbounded input and
// would otherwise grow the cross-request cache without limit.
func (s *Server) execCompile(ctx context.Context, p Params) (json.RawMessage, error) {
	h := fnv.New64a()
	h.Write([]byte(p.Source))
	name := fmt.Sprintf("kernel_%016x", h.Sum64())

	g, err := frontend.Compile(name, p.Source)
	if err != nil {
		return nil, fault.Invariantf("compile: %v", err)
	}
	raw := g.ComputeNodeCount()
	g = ir.Optimize(g)
	app := &apps.App{Name: name, Graph: g, Unroll: 1, TotalOutputs: 1 << 20}

	fw := core.New()
	fw.MineWorkers = 1
	an, err := fw.Analyze(ctx, app)
	if err != nil {
		return nil, err
	}
	var v *core.PEVariant
	if p.K > 0 && len(an.Ranked) > 0 {
		v, err = fw.GeneratePE(ctx, name+"_pe", app.UsedOps(), core.SelectPatterns(an, p.K))
	} else {
		v, err = fw.BaselinePE(ctx)
	}
	if err != nil {
		return nil, err
	}
	r, err := fw.Evaluate(ctx, app, v, core.PostMapping)
	if err != nil {
		return nil, err
	}
	out := compileResult{
		Kernel:     name,
		Nodes:      g.NumNodes(),
		ComputeOps: g.ComputeNodeCount(),
		RawOps:     raw,
		Mined:      len(an.Ranked),
		Eval:       summarizeResult(r),
	}
	return json.Marshal(&out)
}
