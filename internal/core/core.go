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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"sync"

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
	"repro/internal/wire"
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
//
// An Analysis is read-only once built and may be shared between
// goroutines. Its one piece of mutable state, the greedy selection order
// SelectPatterns extends on demand, is derived from View and Ranked,
// guarded by its own lock, and never encoded. The merged datapaths along
// that order are not the analysis's: they are keyed by content in the
// GenMemo a GenerateTopPE call shares, so analyses that pick the same
// patterns merge them once.
type Analysis struct {
	View   *graph.Graph
	Ranked []mis.Ranked

	order selectOrder
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
// Read its rule set through RuleSet: a variant loaded from the store
// leaves Rules nil until then.
type PEVariant struct {
	Name      string
	Spec      *pe.Spec
	Pipelined *pipeline.PipelinedPE
	Rules     *rewrite.RuleSet
	// Baseline marks the paper's Fig. 1 general-purpose PE, whose
	// area/energy come from the calibrated baseline model rather than
	// the generated-datapath roll-up.
	Baseline bool

	// lazyRules, when set, builds the rule set at most once (see
	// NewLazyVariant).
	lazyRules func() *rewrite.RuleSet
}

// NewLazyVariant returns a variant whose rule set is built by rules on
// the first RuleSet call, once for every caller; its Rules field stays
// nil. The store loads variants this way, since most warm reads need
// only a variant's name, spec and pipelining.
func NewLazyVariant(name string, spec *pe.Spec, pp *pipeline.PipelinedPE, baseline bool, rules func() *rewrite.RuleSet) *PEVariant {
	return &PEVariant{Name: name, Spec: spec, Pipelined: pp, Baseline: baseline, lazyRules: sync.OnceValue(rules)}
}

// RuleSet returns the variant's synthesized rule set: Rules for a
// variant built with it, the once-built rule set for a lazy variant.
func (v *PEVariant) RuleSet() *rewrite.RuleSet {
	if v.lazyRules != nil {
		return v.lazyRules()
	}
	return v.Rules
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
	return f.generateRanked(ctx, nil, name, baseOps, patterns)
}

// GenerateTopPE is GeneratePE over SelectPatterns(a, k), sharing
// generation work with every other call through m (nil shares nothing).
// PE k+1 is PE k's datapath merged with one more subgraph (paper
// Fig. 11), and analyses at other supports often pick the same
// subgraphs, so a call merges only the pattern prefixes no call sharing
// m has merged, and a PE another call has built is renamed rather than
// built again. Either way the variant is identical to GeneratePE's.
func (f *Framework) GenerateTopPE(ctx context.Context, m GenMemo, name string, baseOps []ir.Op, a *Analysis, k int) (*PEVariant, error) {
	return f.generateRanked(ctx, m, name, baseOps, SelectPatterns(a, k))
}

// generateRanked names the ranked patterns "<name>_sg<i>" and generates
// the PE through m.
func (f *Framework) generateRanked(ctx context.Context, m GenMemo, name string, baseOps []ir.Op, patterns []mis.Ranked) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe",
		obs.String("variant", name), obs.Int("patterns", len(patterns)))
	defer span.End()
	var named []rewrite.NamedPattern
	for i, r := range patterns {
		np, err := rewrite.PatternFromMined(r.Pattern.Graph, fmt.Sprintf("%s_sg%d", name, i))
		if err != nil {
			return nil, err
		}
		named = append(named, np)
	}
	v, err := f.generate(ctx, m, name, baseOps, named)
	if err != nil {
		return nil, err
	}
	obs.Logger(ctx).Info("generated PE",
		"variant", name, "merged_patterns", len(named), "rules", len(v.RuleSet().Rules), "stages", v.Pipelined.Stages)
	return v, nil
}

// GenMemo shares PE generation between calls (GenerateTopPE). Generated
// returns the step memoized under key, calling build at most once per
// key among concurrent callers. Generation builds are never canceled.
type GenMemo interface {
	Generated(key string, build func() (*Generated, error)) (*Generated, error)
}

// Generated is one memoized step of PE generation, keyed by content:
// the baseline merged with a prefix of the patterns (genKey.merged), a
// PE built under the names of the call that built it (genKey.pe), or
// the rule, nil if none, that one pattern graph has on one datapath
// (ruleSet). It is read-only once built.
type Generated struct {
	// tech is the model a merged or PE key names by address; holding it
	// keeps that address from being reused while the entry lives.
	tech *tech.Model
	dp   *merge.Datapath
	v    *PEVariant
	rule *rewrite.Rule
}

// unshared is the GenMemo of a call that shares nothing: it builds every
// step it is asked for.
type unshared struct{}

func (unshared) Generated(_ string, build func() (*Generated, error)) (*Generated, error) {
	return build()
}

// generate merges the named patterns into the baseline over baseOps,
// then synthesizes the compiler and pipelines the PE, each step through
// m. A generated PE is a pure function of the tech model, the op set and
// the pattern graphs; names only label it. So a call whose PE another
// call has built takes that PE under its own names, and records the
// span subtree a build records: one merge span per pattern,
// synthesize_rules and pipeline_pe.
func (f *Framework) generate(ctx context.Context, m GenMemo, name string, baseOps []ir.Op, named []rewrite.NamedPattern) (*PEVariant, error) {
	if m == nil {
		m = unshared{}
	}
	ops := withControlOps(baseOps)
	pats := rewrite.RulePatterns(named, ops)
	key := newGenKey(f.Tech, ops, named)
	built := false
	g, err := m.Generated(key.pe(), func() (*Generated, error) {
		built = true
		dp, err := f.datapath(ctx, m, key, ops, named)
		if err != nil {
			return nil, err
		}
		v, err := f.finish(ctx, m, pe.FromDatapath(name, dp), pats, nil)
		return &Generated{tech: f.Tech, v: v}, err
	})
	switch {
	case err != nil:
		return nil, err
	case built:
		return g.v, nil
	}
	for _, np := range named {
		_, span := obs.StartSpan(ctx, "merge", obs.String("pattern", np.Name))
		span.End()
	}
	b := g.v.Spec
	dp := *b.DP
	dp.Sources = []string{b.DP.Sources[0]}
	for _, np := range named {
		dp.Sources = append(dp.Sources, np.Name)
	}
	spec := *b
	spec.Name, spec.DP = name, &dp
	return f.finish(ctx, m, &spec, pats, g.v.Pipelined)
}

// finish synthesizes spec's rules for pats through m and pipelines spec,
// or, when built is a pipelining of spec's datapath, takes that one: a
// pipelining depends only on the datapath and the tech model.
func (f *Framework) finish(ctx context.Context, m GenMemo, spec *pe.Spec, pats []rewrite.NamedPattern, built *pipeline.PipelinedPE) (*PEVariant, error) {
	rules, err := synthesizeRules(ctx, spec, func() (*rewrite.RuleSet, error) {
		return ruleSet(m, spec, pats)
	})
	if err != nil {
		return nil, err
	}
	pp := pipelinePE(ctx, spec, func() *pipeline.PipelinedPE {
		if built == nil {
			return pipeline.PipelinePE(spec, f.Tech, pipeline.Options{})
		}
		c := *built
		c.Spec = spec
		return &c
	})
	return &PEVariant{Name: spec.Name, Spec: spec, Pipelined: pp, Rules: rules}, nil
}

// datapath returns a copy of the baseline over ops merged with the named
// patterns in order, each prefix's merge run through m and recorded in
// one merge span per pattern. A pattern's name enters its merge only as
// provenance (Sources[1+i]), which the copy takes from named.
func (f *Framework) datapath(ctx context.Context, m GenMemo, key genKey, ops []ir.Op, named []rewrite.NamedPattern) (*merge.Datapath, error) {
	g, err := m.Generated(key.merged(0), func() (*Generated, error) {
		return &Generated{tech: f.Tech, dp: merge.BaselinePE(ops)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, np := range named {
		_, span := obs.StartSpan(ctx, "merge", obs.String("pattern", np.Name))
		prev := g.dp
		g, err = m.Generated(key.merged(i+1), func() (*Generated, error) {
			pdp, err := merge.FromPattern(np.Graph, np.Name)
			if err != nil {
				return nil, err
			}
			return &Generated{tech: f.Tech, dp: merge.Merge(prev, pdp, merge.Options{Tech: f.Tech})}, nil
		})
		span.End()
		if err != nil {
			return nil, err
		}
	}
	dp := g.dp.Clone()
	for i, np := range named {
		dp.Sources[1+i] = np.Name
	}
	return dp, nil
}

// ruleSet synthesizes spec's rules for pats, each through m under its
// (datapath, pattern graph) key: PEs whose patterns differ can still
// share a datapath, such as one whose last pattern merged into units the
// datapath already had, and a rule depends only on the pair. Synthesis
// reads a name only to label the rule, so the rule is named for the call
// that found it, and every other call takes a copy with its own name,
// pattern graph and spec that shares the configuration and port maps.
func ruleSet(m GenMemo, spec *pe.Spec, pats []rewrite.NamedPattern) (*rewrite.RuleSet, error) {
	prefix := "rule|" + datapathDigest(spec.DP)
	var key []byte
	return rewrite.BuildRuleSet(spec, pats, func(np rewrite.NamedPattern) (*rewrite.Rule, error) {
		key = appendGraph(append(key[:0], prefix...), np.Graph)
		g, err := m.Generated(string(key), func() (*Generated, error) {
			r, err := rewrite.SynthesizeRule(spec, np.Graph, np.Name)
			return &Generated{rule: r}, err
		})
		switch {
		case err != nil || g.rule == nil:
			return nil, err
		case g.rule.Spec == spec && g.rule.Name == np.Name && g.rule.Pattern == np.Graph:
			return g.rule, nil
		}
		r := *g.rule
		r.Name, r.Pattern, r.Spec = np.Name, np.Graph, spec
		return &r, nil
	})
}

// datapathDigest digests what rule synthesis reads of a datapath: its
// units and wires, but not its Sources.
func datapathDigest(dp *merge.Datapath) string {
	var e wire.Enc
	e.Int(len(dp.Units))
	for _, u := range dp.Units {
		e.Int(int(u.Kind))
		e.Int(len(u.Ops))
		for _, op := range u.Ops {
			e.Int(int(op))
		}
		e.Str(u.Class)
		e.Bool(u.Bit)
	}
	e.Int(len(dp.Wires))
	for _, w := range dp.Wires {
		e.Int(w.From)
		e.Int(w.To)
		e.Int(w.Port)
	}
	sum := sha256.Sum256(e.Buf)
	return hex.EncodeToString(sum[:])
}

// appendGraph renders a pattern graph's nodes: op, arguments, value and
// name.
func appendGraph(b []byte, g *ir.Graph) []byte {
	b = append(b, '|')
	for _, n := range g.Nodes {
		b = strconv.AppendInt(b, int64(n.Op), 10)
		for _, a := range n.Args {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(a), 10)
		}
		b = append(b, ';')
		b = strconv.AppendUint(b, uint64(n.Val), 10)
		b = strconv.AppendQuote(b, n.Name)
	}
	return b
}

// genKey renders what a generated PE depends on: the tech model's
// address, the op set, and each pattern graph's nodes (op, arguments,
// value and name), but not the patterns' names. ends[i] is where the
// rendering of patterns 0..i-1 ends.
type genKey struct {
	s    string
	ends []int
}

func newGenKey(m *tech.Model, ops []ir.Op, named []rewrite.NamedPattern) genKey {
	b := fmt.Appendf(nil, "%p|%v", m, ops)
	ends := []int{len(b)}
	for _, np := range named {
		b = appendGraph(b, np.Graph)
		ends = append(ends, len(b))
	}
	return genKey{string(b), ends}
}

// merged keys the baseline merged with the first i patterns.
func (k genKey) merged(i int) string { return "merge|" + k.s[:k.ends[i]] }

// pe keys the PE generated from all the patterns. The names
// generateRanked gives patterns never repeat each other or a single-op
// pattern's name, so synthesis skips none and the key need not say
// where names repeat.
func (k genKey) pe() string { return "pe|" + k.s }

// synthesizeRules runs compiler generation in its span.
func synthesizeRules(ctx context.Context, spec *pe.Spec, synth func() (*rewrite.RuleSet, error)) (*rewrite.RuleSet, error) {
	_, span := obs.StartSpan(ctx, "synthesize_rules", obs.String("variant", spec.Name))
	defer span.End()
	rules, err := synth()
	if err == nil {
		span.SetAttrs(obs.Int("rules", len(rules.Rules)))
	}
	return rules, err
}

// pipelinePE runs PE pipelining in its span.
func pipelinePE(ctx context.Context, spec *pe.Spec, pipe func() *pipeline.PipelinedPE) *pipeline.PipelinedPE {
	_, span := obs.StartSpan(ctx, "pipeline_pe", obs.String("variant", spec.Name))
	defer span.End()
	pp := pipe()
	span.SetAttrs(obs.Int("stages", pp.Stages))
	return pp
}

// GeneratePEFromPatterns is GeneratePE for already-converted patterns
// (used when composing domain PEs from several applications' subgraphs).
func (f *Framework) GeneratePEFromPatterns(ctx context.Context, name string, baseOps []ir.Op, named []rewrite.NamedPattern) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe",
		obs.String("variant", name), obs.Int("patterns", len(named)))
	defer span.End()
	return f.generate(ctx, nil, name, baseOps, named)
}

// BaselinePE returns the paper's general-purpose baseline PE variant.
func (f *Framework) BaselinePE(ctx context.Context) (*PEVariant, error) {
	ctx, span := obs.StartSpan(ctx, "generate_pe", obs.String("variant", "baseline"))
	defer span.End()
	ops := ir.BaselineALUOps()
	spec := pe.FromDatapath("baseline", merge.BaselinePE(ops))
	rules, err := synthesizeRules(ctx, spec, func() (*rewrite.RuleSet, error) {
		return rewrite.SynthesizeRuleSet(spec, nil, ops)
	})
	if err != nil {
		return nil, err
	}
	pp := pipelinePE(ctx, spec, func() *pipeline.PipelinedPE {
		return pipeline.PipelinePE(spec, f.Tech, pipeline.Options{})
	})
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
//
// The picks for k are a prefix of the picks for k+1, so the analysis
// keeps the order found so far and a call runs only the rounds no
// earlier call has run. The returned slice is the caller's own.
func SelectPatterns(a *Analysis, k int) []mis.Ranked {
	o := &a.order
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.picks) < k && !o.done {
		o.extend(a)
	}
	n := min(k, len(o.picks))
	if n <= 0 {
		return nil
	}
	return append([]mis.Ranked(nil), o.picks[:n]...)
}

// selectOrder is an analysis's greedy selection order, extended one
// round at a time: the picks so far, the candidates and covered view
// nodes the next round resumes from, and whether no further pattern can
// be picked (the scratch state is released then).
type selectOrder struct {
	mu        sync.Mutex
	picks     []mis.Ranked
	remaining []selectCand
	sc        *selectScratch
	done      bool
}

// extend runs one greedy round: pick the remaining pattern whose
// absorbable occurrences cover the most compute nodes not yet covered.
func (o *selectOrder) extend(a *Analysis) {
	if o.sc == nil {
		o.sc = newSelectScratch(a.View.NumNodes())
		o.remaining = make([]selectCand, 0, len(a.Ranked))
		for _, r := range a.Ranked {
			o.remaining = append(o.remaining, newSelectCand(r))
		}
	}
	bestIdx, bestScore := -1, 0
	var bestOccs []graph.Embedding
	for i := range o.remaining {
		c := &o.remaining[i]
		if c.perOcc <= 0 {
			continue
		}
		occs := o.sc.absorbableDisjoint(a.View, c)
		if score := len(occs) * c.perOcc; score > bestScore {
			bestIdx, bestScore, bestOccs = i, score, occs
		}
	}
	if bestIdx >= 0 {
		for _, occ := range bestOccs {
			for _, v := range occ {
				o.sc.covered[v] = true
			}
		}
		o.picks = append(o.picks, o.remaining[bestIdx].r)
		o.remaining = append(o.remaining[:bestIdx], o.remaining[bestIdx+1:]...)
	}
	if bestIdx < 0 || len(o.remaining) == 0 {
		o.done, o.remaining, o.sc = true, nil, nil
	}
}

// selectCand is a ranked pattern with what a selection round needs of
// its shape, derived once per analysis: the compute nodes each absorbed
// occurrence saves beyond its root (perOcc), the single sink (-1 when
// the pattern has none or several) and, per pattern position, whether
// it is an interior compute node whose users must all stay inside an
// occurrence.
type selectCand struct {
	r        mis.Ranked
	perOcc   int
	sink     int
	interior []bool
}

func newSelectCand(r mis.Ranked) selectCand {
	p := r.Pattern.Graph
	c := selectCand{r: r, perOcc: r.Pattern.ComputeSize() - 1, sink: -1}
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

// selectScratch holds the selection's per-view-node state, allocated
// once per analysis: nodes covered by the selected patterns, nodes taken
// by the occurrences chosen for the pattern being scored (cleared after
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
