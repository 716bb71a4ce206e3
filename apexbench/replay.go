package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/merge"
	"repro/internal/mining"
	"repro/internal/mis"
	"repro/internal/pe"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/store"
)

// replayer re-runs the core entry points of one workload under the span
// recorder: each core.Framework call runs for real (its result is the
// one compared against the untimed run) and is then decomposed into the
// public layer calls it makes, each in its own span. The replayed layer
// outputs are checked against the real call's, and every mapped design
// is checked for functional equivalence with its application.
type replayer struct {
	t   *tracer
	ctx context.Context
	rng *rand.Rand
	// equivTrials is the number of random input vectors per mapped
	// design; equivDesigns counts the designs checked.
	equivTrials  int
	equivDesigns int
}

func newReplayer(t *tracer, seed int64) *replayer {
	return &replayer{t: t, ctx: context.Background(), rng: rand.New(rand.NewSource(seed)), equivTrials: 8}
}

// pnrLadder mirrors core's place-and-route retry schedule (seed offset,
// portfolio width, router iteration budget); the replay walks the same
// rungs so its layer calls are the ones Evaluate made.
var pnrLadder = []struct {
	seedOffset int64
	seeds      int
	routeIters int
}{
	{0, 1, 0},
	{1, 2, 48},
	{3, 3, 96},
}

func mineWorkers(fw *core.Framework) int {
	if fw.MineWorkers > 0 {
		return fw.MineWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// analyze replays core.Framework.Analyze.
func (rp *replayer) analyze(fw *core.Framework, app *apps.App) (*core.Analysis, error) {
	t := rp.t
	var real *core.Analysis
	var err error
	var ranked []mis.Ranked
	t.core("core.analyze", func() {
		real, err = fw.Analyze(rp.ctx, app)
	}, func() {
		var view *graph.Graph
		t.do("mining.view", func() { view, _ = mining.ComputeView(app.Graph) })
		var pats []mining.Pattern
		var merr error
		t.do("mining.mine", func() {
			pats, merr = mining.Mine(rp.ctx, view, mining.Options{
				MinSupport: fw.EffectiveMinSupport(app),
				MaxNodes:   fw.MaxPatternNodes,
				Workers:    mineWorkers(fw),
			})
		})
		if merr != nil {
			return
		}
		t.add("mining.calls", 1)
		t.add("mining.patterns", float64(len(pats)))
		t.do("mis.rank", func() { ranked = mis.Rank(rp.ctx, pats) })
		t.add("mis.ranked", float64(len(ranked)))
	})
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", app.Name, err)
	}
	if a, b := rankedDigest(real.Ranked), rankedDigest(ranked); a != b {
		return nil, gatef("analyze %s: replayed ranking differs from core.Analyze", app.Name)
	}
	return real, nil
}

// rankedDigest renders a ranking's identity: pattern codes, MIS sizes
// and occurrence counts in rank order.
func rankedDigest(rs []mis.Ranked) string {
	var b bytes.Buffer
	for _, r := range rs {
		fmt.Fprintf(&b, "%s/%d/%d/%d;", r.Pattern.Code, r.Pattern.Support, r.MISSize, len(r.Occurrences))
	}
	return b.String()
}

// peRecipe is how a named PE variant is built: its base operations and
// the patterns merged into it (ranked subgraphs, converted with the
// "<name>_sg<i>" naming core.GeneratePE uses, or already-named
// patterns), or the general-purpose baseline.
type peRecipe struct {
	name     string
	baseOps  []ir.Op
	ranked   []mis.Ranked
	named    []rewrite.NamedPattern
	baseline bool
}

// generate replays core.Framework.GeneratePE (or BaselinePE /
// GeneratePEFromPatterns, whichever the recipe's builder calls) and
// checks that the replayed datapath, rules and pipelining encode
// byte-identically to the real variant.
func (rp *replayer) generate(fw *core.Framework, rc peRecipe) (*core.PEVariant, error) {
	t := rp.t
	var real *core.PEVariant
	var err error
	var replayed *core.PEVariant
	var rerr error
	t.core("core.generate", func() {
		switch {
		case rc.baseline:
			real, err = fw.BaselinePE(rp.ctx)
		case rc.named != nil:
			real, err = fw.GeneratePEFromPatterns(rp.ctx, rc.name, rc.baseOps, rc.named)
		default:
			real, err = fw.GeneratePE(rp.ctx, rc.name, rc.baseOps, rc.ranked)
		}
	}, func() {
		replayed, rerr = rp.generateLayers(fw, rc)
	})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", rc.name, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("replay generate %s: %w", rc.name, rerr)
	}
	if !bytes.Equal(store.EncodeVariant(real), store.EncodeVariant(replayed)) {
		return nil, gatef("generate %s: replayed variant differs from core's", rc.name)
	}
	return real, nil
}

func (rp *replayer) generateLayers(fw *core.Framework, rc peRecipe) (*core.PEVariant, error) {
	t := rp.t
	ops := rc.baseOps
	if !rc.baseline {
		ops = withControlOps(ops)
	}
	named := rc.named
	if named == nil {
		for i, r := range rc.ranked {
			np, err := rewrite.PatternFromMined(r.Pattern.Graph, fmt.Sprintf("%s_sg%d", rc.name, i))
			if err != nil {
				return nil, err
			}
			named = append(named, np)
		}
	}
	var dp *merge.Datapath
	t.do("merge.baseline", func() { dp = merge.BaselinePE(ops) })
	for _, np := range named {
		var pdp *merge.Datapath
		var err error
		t.do("merge.from_pattern", func() { pdp, err = merge.FromPattern(np.Graph, np.Name) })
		if err != nil {
			return nil, err
		}
		t.do("merge.merge", func() { dp = merge.Merge(dp, pdp, merge.Options{Tech: fw.Tech}) })
		t.add("merge.calls", 1)
	}
	t.add("merge.units", float64(len(dp.Units)))
	var spec *pe.Spec
	t.do("pe.from_datapath", func() { spec = pe.FromDatapath(rc.name, dp) })
	var rules *rewrite.RuleSet
	var err error
	t.do("rewrite.synth", func() { rules, err = rewrite.SynthesizeRuleSet(spec, named, ops) })
	if err != nil {
		return nil, err
	}
	t.add("rewrite.rules", float64(len(rules.Rules)))
	var pp *pipeline.PipelinedPE
	t.do("pipeline.pe", func() { pp = pipeline.PipelinePE(spec, fw.Tech, pipeline.Options{}) })
	return &core.PEVariant{Name: rc.name, Spec: spec, Pipelined: pp, Rules: rules, Baseline: rc.baseline}, nil
}

// withControlOps mirrors core's operation-set completion for generated
// PEs: the base operations deduplicated, plus the control operations.
func withControlOps(ops []ir.Op) []ir.Op {
	seen := map[ir.Op]bool{}
	var out []ir.Op
	for _, op := range append(append([]ir.Op(nil), ops...), core.ControlOps...) {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}

// evaluate replays core.Framework.Evaluate: instruction selection,
// branch-delay balancing, and the place/route retry ladder with the
// bitstream of the routed design. The replayed utilization, latency and
// PnR outcome must equal the real result's, and the mapped and balanced
// designs must compute what the application computes.
func (rp *replayer) evaluate(fw *core.Framework, app *apps.App, v *core.PEVariant, opt core.EvalOptions) (*core.Result, error) {
	t := rp.t
	var real *core.Result
	var err error
	var lay layerOutcome
	var rerr error
	t.core("core.evaluate", func() {
		real, err = fw.Evaluate(rp.ctx, app, v, opt)
	}, func() {
		lay, rerr = rp.evaluateLayers(fw, app, v, opt)
	})
	cell := fmt.Sprintf("%s on %s (pnr=%v pipelined=%v)", app.Name, v.Name, opt.PnR, opt.Pipelined)
	if err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", cell, err)
	}
	if rerr != nil {
		return nil, fmt.Errorf("replay evaluate %s: %w", cell, rerr)
	}
	got := [7]int{lay.mapped.NumPEs(), lay.balanced.NumRegs(), lay.balanced.NumRegFiles(), lay.latency, lay.attempts, b2i(lay.degraded), lay.routingTiles}
	want := [7]int{real.NumPEs, real.NumRegs, real.NumRFs, real.LatencyCyc, real.PnRAttempts, b2i(real.Degraded), real.RoutingTiles}
	if got != want {
		return nil, gatef("evaluate %s: replay (pes, regs, rfs, latency, attempts, degraded, routing tiles) = %v, core = %v", cell, got, want)
	}
	// The evaluation stops at the routed design; the bitstream is the
	// next step a user takes, so it is recorded outside the core span.
	if lay.routing != nil {
		var berr error
		t.do("cgra.bitstream", func() { _, berr = cgra.GenerateBitstream(lay.routing) })
		if berr != nil {
			return nil, fmt.Errorf("bitstream %s: %w", cell, berr)
		}
	}
	if opt.PnR {
		t.add("core.pnr_attempts", float64(real.PnRAttempts))
		t.add("core.degraded", float64(b2i(real.Degraded)))
	}
	for _, m := range []*rewrite.Mapped{real.Mapped, real.Balanced} {
		if err := rp.checkEquivalent(app.Graph, m, cell); err != nil {
			return nil, err
		}
	}
	return real, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layerOutcome is what the replayed layer calls of one evaluation
// produced.
type layerOutcome struct {
	mapped, balanced *rewrite.Mapped
	latency          int
	attempts         int
	degraded         bool
	routingTiles     int
	routing          *cgra.Routing
}

func (rp *replayer) evaluateLayers(fw *core.Framework, app *apps.App, v *core.PEVariant, opt core.EvalOptions) (layerOutcome, error) {
	t := rp.t
	var out layerOutcome
	var err error
	t.do("rewrite.map", func() { out.mapped, err = rewrite.MapApp(app.Graph, v.Rules, app.Name+"@"+v.Name) })
	if err != nil {
		return out, err
	}
	t.add("rewrite.mapped_pes", float64(out.mapped.NumPEs()))
	peLat := 0
	if opt.Pipelined {
		peLat = max(v.Pipelined.Stages, 1)
	}
	var rep pipeline.BalanceReport
	t.do("pipeline.balance", func() {
		out.balanced, rep = pipeline.BalanceApp(out.mapped, pipeline.AppOptions{PELatency: peLat})
	})
	out.latency = rep.TotalLatency
	t.add("pipeline.regs", float64(out.balanced.NumRegs()))
	if !opt.PnR {
		return out, nil
	}
	for _, rung := range pnrLadder {
		out.attempts++
		var placed *cgra.Placement
		t.do("cgra.place", func() {
			placed, err = cgra.Place(rp.ctx, out.balanced, fw.Fabric, cgra.PlaceOptions{
				Seed:  fw.PlaceSeed + rung.seedOffset,
				Moves: fw.PlaceMoves,
				Seeds: max(rung.seeds, fw.PlaceSeeds),
			})
		})
		t.add("cgra.place_calls", 1)
		if errors.Is(err, fault.ErrCapacity) {
			out.degraded = true
			return out, nil
		}
		if err != nil {
			return out, err
		}
		var routing *cgra.Routing
		t.do("cgra.route", func() {
			routing, err = cgra.RouteAll(rp.ctx, placed, cgra.RouteOptions{MaxIterations: rung.routeIters})
		})
		if errors.Is(err, fault.ErrNonConvergence) {
			continue
		}
		if err != nil {
			return out, err
		}
		out.routingTiles = routing.RoutingOnlyTiles()
		out.routing = routing
		t.add("cgra.route_nets", float64(len(routing.Routes)))
		t.add("cgra.route_hops", float64(routing.TotalHops()))
		return out, nil
	}
	out.degraded = true
	return out, nil
}

// checkEquivalent drives the mapped design's functional model and the
// application graph's interpreter with the same seeded random inputs;
// any output difference is a gate failure.
func (rp *replayer) checkEquivalent(app *ir.Graph, m *rewrite.Mapped, cell string) error {
	if m == nil {
		return nil
	}
	ins := app.Inputs()
	for trial := 0; trial < rp.equivTrials; trial++ {
		vals := make(map[string]uint16, len(ins))
		for _, ref := range ins {
			vals[app.Nodes[ref].Name] = uint16(rp.rng.Intn(1 << 16))
		}
		want, err := app.Eval(vals)
		if err != nil {
			return fmt.Errorf("equivalence %s: interpreter: %w", cell, err)
		}
		got, err := m.Eval(vals)
		if err != nil {
			return fmt.Errorf("equivalence %s: mapped model: %w", cell, err)
		}
		if len(got) != len(want) {
			return gatef("equivalence %s: %d outputs, interpreter has %d", cell, len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || g != w {
				return gatef("equivalence %s: output %s = %d, interpreter says %d (trial %d)", cell, name, g, w, trial)
			}
		}
	}
	rp.equivDesigns++
	return nil
}
