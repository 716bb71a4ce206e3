// Package core is the top-level APEX framework API: application analysis
// (frequent subgraph mining + maximal independent set ranking), PE
// generation (datapath merging), compiler generation (rewrite-rule
// synthesis), application mapping, automated pipelining, and CGRA
// place-and-route evaluation — the complete flow of the paper's Fig. 6.
//
// Typical use:
//
//	fw := core.New()
//	app := apps.Camera()
//	analysis := fw.Analyze(ctx, app)
//	variant, _ := fw.GeneratePE(ctx, "camera_pe2", app.UsedOps(), analysis.Ranked[:1])
//	result, _ := fw.Evaluate(ctx, app, variant, core.FullEval)
//
// Every stage is instrumented with internal/obs spans and metrics; a
// context without an attached observability bundle makes all of that
// free (no allocations, no clock reads).
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
)

// Framework bundles the models shared across the flow. It is treated as
// immutable after construction: no exported method mutates it, so one
// Framework can serve any number of concurrent analyses, PE generations,
// and evaluations. Per-call settings (place-and-route level, application
// pipelining) travel in EvalOptions instead of Framework fields.
type Framework struct {
	Tech   *tech.Model
	Fabric *cgra.Fabric
	// MaxPatternNodes caps mined pattern size (paper's merged PEs come
	// from small subgraphs, cf. Fig. 10).
	MaxPatternNodes int
	// PlaceSeed makes placement deterministic.
	PlaceSeed int64
	// PlaceMoves bounds annealing effort (0 = auto).
	PlaceMoves int
	// PlaceSeeds widens every placement into a deterministic multi-seed
	// portfolio (cgra.PlaceOptions.Seeds): K anneals from consecutive
	// seeds, lowest wirelength wins, ties to the lowest seed. 0 or 1
	// keeps the single-seed flow byte-identical. Independent of this
	// setting, the PnR retry ladder widens its own retry rungs.
	PlaceSeeds int
	// MineWorkers parallelizes frequent-subgraph mining inside Analyze
	// (mining.Options.Workers). 0 means runtime.GOMAXPROCS(0); 1 mines
	// serially; any value yields byte-identical analyses — mining is
	// deterministic at every worker count.
	MineWorkers int
	// MinSupport overrides the mined minimum MNI support threshold; 0
	// keeps the paper's rule (ComputeOps/40, floored at 4). The sweep
	// engine uses it as an exploration axis.
	MinSupport int
}

// New returns a framework with the paper's defaults: calibrated tech
// model and the 32x16 evaluation fabric.
func New() *Framework {
	return &Framework{
		Tech:            tech.Default(),
		Fabric:          cgra.Default(),
		MaxPatternNodes: 4,
		PlaceSeed:       1,
	}
}

// Analysis is the result of mining one application: the compute view the
// patterns embed into, and the MIS-ranked pattern list.
type Analysis struct {
	View   *graph.Graph
	Ranked []mis.Ranked
}

// Analyze mines an application's compute view and ranks the frequent
// subgraphs by maximal independent set size (paper Section 3.1-3.2).
// The only possible error is cancellation of ctx mid-mine.
func (f *Framework) Analyze(ctx context.Context, app *apps.App) (*Analysis, error) {
	ctx, span := obs.StartSpan(ctx, "analyze", obs.String("app", app.Name))
	defer span.End()

	_, vspan := obs.StartSpan(ctx, "compute_view")
	view, _ := mining.ComputeView(app.Graph)
	vspan.End()

	minSupport := f.EffectiveMinSupport(app)
	mctx, mspan := obs.StartSpan(ctx, "mine", obs.Int("min_support", minSupport))
	pats, err := mining.Mine(mctx, view, mining.Options{
		MinSupport: minSupport,
		MaxNodes:   f.MaxPatternNodes,
		Workers:    f.mineWorkers(),
	})
	if err != nil {
		mspan.End()
		return nil, err
	}
	mspan.SetAttrs(obs.Int("patterns", len(pats)))
	mspan.End()

	rctx, rspan := obs.StartSpan(ctx, "mis_rank", obs.Int("patterns", len(pats)))
	ranked := mis.Rank(rctx, pats)
	rspan.End()
	obs.Logger(ctx).Info("analyzed application",
		"app", app.Name, "min_support", minSupport, "patterns", len(pats))
	return &Analysis{View: view, Ranked: ranked}, nil
}

// EffectiveMinSupport resolves the mining support threshold for an
// application: the explicit MinSupport override when set, otherwise the
// paper's rule of one fortieth of the compute-op count, floored at 4.
func (f *Framework) EffectiveMinSupport(app *apps.App) int {
	if f.MinSupport > 0 {
		return f.MinSupport
	}
	minSupport := app.ComputeOps() / 40
	if minSupport < 4 {
		minSupport = 4
	}
	return minSupport
}

// mineWorkers resolves MineWorkers: 0 means one goroutine per available
// CPU (mining output is worker-count-invariant, so the default is the
// parallel one; set 1 for a fully serial mine).
func (f *Framework) mineWorkers() int {
	if f.MineWorkers > 0 {
		return f.MineWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// PEVariant is one generated PE design together with its compiler.
type PEVariant struct {
	Name      string
	Spec      *pe.Spec
	Pipelined *pipeline.PipelinedPE
	Rules     *rewrite.RuleSet
	// Baseline marks the paper's Fig. 1 general-purpose PE, whose
	// area/energy come from the calibrated baseline model rather than
	// the generated-datapath roll-up.
	Baseline bool
}

// CoreArea returns the PE core area in um^2.
func (v *PEVariant) CoreArea(m *tech.Model) float64 {
	if v.Baseline {
		return m.BaselinePECore().Area
	}
	return v.Pipelined.Area(m)
}

// ActivationEnergy returns the energy of one PE activation executing the
// given rule.
func (v *PEVariant) ActivationEnergy(r *rewrite.Rule, m *tech.Model) float64 {
	if v.Baseline {
		return m.BaselinePECore().Energy
	}
	return v.Spec.ActivationEnergy(r.Ops, m)
}

// ControlOps are always retained in generated PEs so domain PEs can run
// applications whose control patterns were not in the analyzed set (the
// baseline's LUT and select serve the same role).
var ControlOps = []ir.Op{ir.OpSel, ir.OpLUT}

// GeneratePE builds a specialized PE: the application-restricted baseline
// (the paper's "PE 1") merged with the given ranked subgraphs in order
// (PE 2 merges one, PE 3 two, and so on), plus the synthesized compiler
// and automatic pipelining.
func (f *Framework) GeneratePE(ctx context.Context, name string, baseOps []ir.Op, patterns []mis.Ranked) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe",
		obs.String("variant", name), obs.Int("patterns", len(patterns)))
	defer span.End()
	ops := withControlOps(baseOps)
	dp := merge.BaselinePE(ops)
	var named []rewrite.NamedPattern
	for i, r := range patterns {
		np, err := rewrite.PatternFromMined(r.Pattern.Graph, fmt.Sprintf("%s_sg%d", name, i))
		if err != nil {
			return nil, err
		}
		_, mspan := obs.StartSpan(ctx, "merge", obs.String("pattern", np.Name))
		pdp, err := merge.FromPattern(np.Graph, np.Name)
		if err != nil {
			mspan.End()
			return nil, err
		}
		dp = merge.Merge(dp, pdp, merge.Options{Tech: f.Tech})
		mspan.End()
		named = append(named, np)
	}
	spec := pe.FromDatapath(name, dp)
	rules, err := synthesizeRules(ctx, spec, named, ops)
	if err != nil {
		return nil, err
	}
	pp := pipelinePE(ctx, spec, f.Tech)
	obs.Logger(ctx).Info("generated PE",
		"variant", name, "merged_patterns", len(named), "rules", len(rules.Rules), "stages", pp.Stages)
	return &PEVariant{Name: name, Spec: spec, Pipelined: pp, Rules: rules}, nil
}

// synthesizeRules wraps compiler generation in its span.
func synthesizeRules(ctx context.Context, spec *pe.Spec, named []rewrite.NamedPattern, ops []ir.Op) (*rewrite.RuleSet, error) {
	_, span := obs.StartSpan(ctx, "synthesize_rules", obs.String("variant", spec.Name))
	defer span.End()
	rules, err := rewrite.SynthesizeRuleSet(spec, named, ops)
	if err == nil {
		span.SetAttrs(obs.Int("rules", len(rules.Rules)))
	}
	return rules, err
}

// pipelinePE wraps PE pipelining in its span.
func pipelinePE(ctx context.Context, spec *pe.Spec, m *tech.Model) *pipeline.PipelinedPE {
	_, span := obs.StartSpan(ctx, "pipeline_pe", obs.String("variant", spec.Name))
	defer span.End()
	pp := pipeline.PipelinePE(spec, m, pipeline.Options{})
	span.SetAttrs(obs.Int("stages", pp.Stages))
	return pp
}

// GeneratePEFromPatterns is GeneratePE for already-converted patterns
// (used when composing domain PEs from several applications' subgraphs).
func (f *Framework) GeneratePEFromPatterns(ctx context.Context, name string, baseOps []ir.Op, named []rewrite.NamedPattern) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe",
		obs.String("variant", name), obs.Int("patterns", len(named)))
	defer span.End()
	ops := withControlOps(baseOps)
	dp := merge.BaselinePE(ops)
	for _, np := range named {
		_, mspan := obs.StartSpan(ctx, "merge", obs.String("pattern", np.Name))
		pdp, err := merge.FromPattern(np.Graph, np.Name)
		if err != nil {
			mspan.End()
			return nil, err
		}
		dp = merge.Merge(dp, pdp, merge.Options{Tech: f.Tech})
		mspan.End()
	}
	spec := pe.FromDatapath(name, dp)
	rules, err := synthesizeRules(ctx, spec, named, ops)
	if err != nil {
		return nil, err
	}
	pp := pipelinePE(ctx, spec, f.Tech)
	return &PEVariant{Name: name, Spec: spec, Pipelined: pp, Rules: rules}, nil
}

// BaselinePE returns the paper's general-purpose baseline PE variant.
func (f *Framework) BaselinePE(ctx context.Context) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe", obs.String("variant", "baseline"))
	defer span.End()
	ops := ir.BaselineALUOps()
	spec := pe.FromDatapath("baseline", merge.BaselinePE(ops))
	rules, err := synthesizeRules(ctx, spec, nil, ops)
	if err != nil {
		return nil, err
	}
	pp := pipelinePE(ctx, spec, f.Tech)
	return &PEVariant{Name: "baseline", Spec: spec, Pipelined: pp, Rules: rules, Baseline: true}, nil
}

// RestrictedBaseline returns "PE 1": the baseline PE with only the
// operations the application needs.
func (f *Framework) RestrictedBaseline(ctx context.Context, name string, ops []ir.Op) (*PEVariant, error) {
	return f.GeneratePE(ctx, name, ops, nil)
}

// SelectPatterns picks k subgraphs to merge, greedily maximizing the
// number of PEs the instruction selector can actually save: each round
// scores every remaining pattern by the compute nodes its *absorbable*
// occurrences cover beyond the already-selected patterns (a weighted set
// cover). An occurrence is absorbable when it is single-rooted and every
// interior node's fanout stays inside the occurrence — the same
// conditions the mapper enforces, so the score predicts real coverage.
// This refines the paper's plain MIS-rank selection: a top-MIS pattern
// whose occurrences overlap application fanout would waste a merge slot.
func SelectPatterns(a *Analysis, k int) []mis.Ranked {
	sc := newSelectScratch(a.View.NumNodes())
	remaining := make([]selectCand, 0, len(a.Ranked))
	for _, r := range a.Ranked {
		remaining = append(remaining, newSelectCand(r))
	}
	var out []mis.Ranked
	for len(out) < k && len(remaining) > 0 {
		bestIdx, bestScore := -1, 0
		var bestOccs []graph.Embedding
		for i := range remaining {
			c := &remaining[i]
			perOcc := c.r.Pattern.ComputeSize() - 1
			if perOcc <= 0 {
				continue
			}
			occs := sc.absorbableDisjoint(a.View, c)
			if score := len(occs) * perOcc; score > bestScore {
				bestIdx, bestScore, bestOccs = i, score, occs
			}
		}
		if bestIdx < 0 {
			break
		}
		for _, occ := range bestOccs {
			for _, v := range occ {
				sc.covered[v] = true
			}
		}
		out = append(out, remaining[bestIdx].r)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}

// selectCand is a ranked pattern with what absorbableDisjoint needs of
// its shape, derived once per SelectPatterns call: the single sink (-1
// when the pattern has none or several) and, per pattern position,
// whether it is an interior compute node whose users must all stay
// inside an occurrence.
type selectCand struct {
	r        mis.Ranked
	sink     int
	interior []bool
}

func newSelectCand(r mis.Ranked) selectCand {
	p := r.Pattern.Graph
	c := selectCand{r: r, sink: -1}
	for v := 0; v < p.NumNodes(); v++ {
		if p.OutDegree(graph.NodeID(v)) == 0 {
			if c.sink >= 0 {
				c.sink = -1
				return c // rules are single-output
			}
			c.sink = v
		}
	}
	if c.sink < 0 {
		return c
	}
	c.interior = make([]bool, p.NumNodes())
	for v := range c.interior {
		c.interior[v] = v != c.sink && ir.OpByName(p.Label(graph.NodeID(v))).IsCompute()
	}
	return c
}

// selectScratch holds SelectPatterns' per-view-node state, allocated
// once per call: nodes covered by the selected patterns, nodes taken by
// the occurrences chosen for the pattern being scored (cleared after
// each), and the occurrence-membership stamp (inOcc[v] == epoch marks v
// as in the occurrence under test).
type selectScratch struct {
	covered, taken []bool
	inOcc          []uint32
	epoch          uint32
}

func newSelectScratch(n int) *selectScratch {
	return &selectScratch{covered: make([]bool, n), taken: make([]bool, n), inOcc: make([]uint32, n)}
}

// absorbableDisjoint returns a maximal set of pairwise-disjoint,
// absorbable occurrences of the pattern that avoid covered nodes.
func (sc *selectScratch) absorbableDisjoint(view *graph.Graph, c *selectCand) []graph.Embedding {
	if c.sink < 0 {
		return nil
	}
	var chosen []graph.Embedding
	for _, occ := range c.r.Occurrences {
		sc.epoch++
		for _, v := range occ {
			sc.inOcc[v] = sc.epoch
		}
		ok := true
		for pi, v := range occ {
			if sc.covered[v] || sc.taken[v] {
				ok = false
				break
			}
			// Interior compute nodes must have all users inside.
			if !c.interior[pi] {
				continue
			}
			for _, e := range view.Out(v) {
				if sc.inOcc[e.To] != sc.epoch {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		for _, v := range occ {
			sc.taken[v] = true
		}
		chosen = append(chosen, occ)
	}
	for _, occ := range chosen {
		for _, v := range occ {
			sc.taken[v] = false
		}
	}
	return chosen
}

// UnionOps returns the union of the applications' operation sets.
func UnionOps(as []*apps.App) []ir.Op {
	seen := map[ir.Op]bool{}
	var ops []ir.Op
	for _, a := range as {
		for _, op := range a.UsedOps() {
			if !seen[op] {
				seen[op] = true
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// TopPatterns converts the top-k ranked subgraphs of an analysis into
// named patterns (for domain-PE composition).
func TopPatterns(name string, ranked []mis.Ranked, k int) ([]rewrite.NamedPattern, error) {
	var out []rewrite.NamedPattern
	for i := 0; i < k && i < len(ranked); i++ {
		np, err := rewrite.PatternFromMined(ranked[i].Pattern.Graph, fmt.Sprintf("%s_sg%d", name, i))
		if err != nil {
			return nil, err
		}
		out = append(out, np)
	}
	return out, nil
}

func withControlOps(ops []ir.Op) []ir.Op {
	seen := map[ir.Op]bool{}
	var out []ir.Op
	for _, op := range ops {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	for _, op := range ControlOps {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}
