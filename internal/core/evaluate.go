package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rewrite"
	"repro/internal/tech"
	"repro/internal/wire"
)

// EvalOptions selects the evaluation level of one Framework.Evaluate
// call. The options are per-call arguments rather than Framework fields
// so that concurrent evaluations sharing one Framework cannot race on
// (or poison) each other's settings: a Framework is immutable after
// construction and every exported method is safe for concurrent use.
type EvalOptions struct {
	// PnR runs full place-and-route; false evaluates at the post-mapping
	// level only (fast mode for Fig. 11/14-style results), leaving the
	// place-and-route fields of the Result zero.
	PnR bool
	// Pipelined enables application pipelining: every PE's output is
	// registered (at least one stage) and branch delay matching balances
	// the graph. Disabling it produces the paper's "pre-pipelining"
	// results (Fig. 16), where combinational paths chain through
	// consecutive PEs and routes.
	Pipelined bool
	// Hook, when non-nil, is called at the entry of each pipeline stage
	// ("map", "balance", "place", "route") with the stage name. A non-nil
	// return aborts the stage with that error; a panic inside the hook
	// propagates like a panic inside the stage itself. Its purpose is
	// deterministic fault injection in tests (see eval.FaultPlan); it must
	// be safe for concurrent use.
	Hook StageHook
	// Memo, when non-nil, lets this evaluation share work with the
	// others evaluated through it: the mapped design of an (application,
	// variant) pair, its balanced design at a PE latency, and the
	// place-and-route outcome of a physical netlist (see Memo). It is
	// ignored while Hook is set, so fault injection always sees every
	// stage run. Results are identical either way.
	Memo Memo
}

// StageHook observes or sabotages pipeline stages; see EvalOptions.Hook.
type StageHook func(stage string) error

// shared reports whether this evaluation shares work through its memo.
func (o EvalOptions) shared() bool { return o.Memo != nil && o.Hook == nil }

// hook runs the stage hook if one is installed.
func (o EvalOptions) hook(stage string) error {
	if o.Hook == nil {
		return nil
	}
	return o.Hook(stage)
}

// FullEval evaluates with place-and-route and application pipelining —
// the level the paper's headline numbers use.
var FullEval = EvalOptions{PnR: true, Pipelined: true}

// PostMapping evaluates pipelined but without place-and-route.
var PostMapping = EvalOptions{PnR: false, Pipelined: true}

// Result is the full evaluation of one application on one PE variant:
// utilization, area, energy, and performance at the post-mapping,
// post-place-and-route, and post-pipelining levels the paper reports.
type Result struct {
	App     string
	Variant string

	// Utilization (Table 3 columns).
	NumPEs       int
	NumMems      int
	NumRFs       int
	NumIOs       int
	NumRegs      int
	RoutingTiles int

	// Area (um^2).
	PECoreArea  float64 // one PE core
	TotalPEArea float64 // PECoreArea x NumPEs
	SBArea      float64
	CBArea      float64
	MemArea     float64
	RFArea      float64
	TotalArea   float64

	// Energy per output sample (pJ).
	PEEnergy    float64
	SBEnergy    float64
	CBEnergy    float64
	MemEnergy   float64
	TotalEnergy float64

	// Timing and performance.
	PELatency    int     // PE pipeline stages
	PeriodPS     float64 // achieved clock period
	LatencyCyc   int     // input-to-output latency
	CyclesPerRun float64 // cycles to produce all outputs
	RuntimeMS    float64
	// PerfPerMM2 is outputs per millisecond per mm^2 (frames/ms/mm^2 for
	// the image applications once divided by the frame size — Table 2
	// reports it per frame; see eval.Table2).
	PerfPerMM2 float64

	// Mapped and physical artifacts for further inspection. They are not
	// persisted by the result store: a cache-loaded Result carries every
	// scalar above plus Routed/Degraded provenance, with these three nil.
	Mapped   *rewrite.Mapped
	Balanced *rewrite.Mapped
	Routing  *cgra.Routing

	// Routed reports that place-and-route completed (Routing was
	// produced). It outlives the Routing pointer across the persistent
	// cache, so table rendering can distinguish a routed result from a
	// degraded estimate even when the artifact was not stored.
	Routed bool

	// Degraded is set when a PnR evaluation fell back to the analytical
	// post-mapping estimate after the retry ladder was exhausted (routing
	// never converged) or the design could not fit the fabric. The metric
	// fields are then the same estimates a PnR:false evaluation produces;
	// DegradedReason says why and PnRAttempts how many placement/routing
	// attempts ran before degrading (also set on success).
	Degraded       bool
	DegradedReason string
	PnRAttempts    int
}

// pnrLadder is the retry-with-fallback schedule for place-and-route: on
// routing non-convergence the retry rungs run a widening placement
// portfolio (several anneal trajectories compete and the lowest-
// wirelength one is routed — strictly better odds than one blind reseed)
// and the router's iteration budget is escalated. Seed offsets are
// spaced so no two rungs anneal the same seed. Exhausting the ladder
// degrades to the analytical estimate rather than failing the
// evaluation.
var pnrLadder = []struct {
	SeedOffset int64
	Seeds      int // portfolio width; 1 = plain single-seed placement
	RouteIters int // 0 = router default (24)
}{
	{0, 1, 0},
	{1, 2, 48},
	{3, 3, 96},
}

// Evaluate runs the full backend for one (application, PE variant) pair:
// instruction selection, branch-delay matching with register-file
// substitution, placement, routing, and metric roll-ups. It is safe to
// call concurrently, including for the same pair with different options.
//
// Place-and-route is fault tolerant: routing non-convergence walks the
// pnrLadder (reseed placement, escalate router iterations), and when the
// ladder is exhausted — or the design cannot fit the fabric at all
// (fault.ErrCapacity) — the evaluation degrades to the analytical
// post-mapping estimate with Result.Degraded set instead of failing.
// Cancellation (fault.ErrCanceled) is never retried and never degraded; it
// propagates so callers can distinguish "gave up" from "was told to stop".
func (f *Framework) Evaluate(ctx context.Context, app *apps.App, v *PEVariant, opt EvalOptions) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "evaluate",
		obs.String("app", app.Name), obs.String("variant", v.Name),
		obs.Bool("pnr", opt.PnR), obs.Bool("pipelined", opt.Pipelined))
	defer span.End()
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	if err := app.Graph.Err(); err != nil {
		return nil, fmt.Errorf("core: app %s is malformed: %w", app.Name, err)
	}
	if err := opt.hook("map"); err != nil {
		return nil, fmt.Errorf("core: map %s on %s: %w", app.Name, v.Name, err)
	}
	prefix := DesignKeyPrefix(app.Name, v.Name)
	_, mapSpan := obs.StartSpan(ctx, "map")
	md, err := opt.design(ctx, prefix+"map", func() (*Design, error) {
		m, err := rewrite.MapApp(app.Graph, v.RuleSet(), app.Name+"@"+v.Name)
		if err != nil {
			return nil, err
		}
		return &Design{mapped: m}, nil
	})
	mapSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: map %s on %s: %w", app.Name, v.Name, err)
	}
	mapped := md.mapped
	peLat := 0
	if opt.Pipelined {
		peLat = v.Pipelined.Stages
		if peLat < 1 {
			peLat = 1 // every PE output is registered in the fabric
		}
	}
	if err := opt.hook("balance"); err != nil {
		return nil, fmt.Errorf("core: balance %s on %s: %w", app.Name, v.Name, err)
	}
	_, balSpan := obs.StartSpan(ctx, "balance")
	bd, err := opt.design(ctx, fmt.Sprintf("%sbalance|%d", prefix, peLat), func() (*Design, error) {
		b, report := pipeline.BalanceApp(mapped, pipeline.AppOptions{PELatency: peLat})
		return &Design{mapped: b, report: report}, nil
	})
	balSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: balance %s on %s: %w", app.Name, v.Name, err)
	}
	balanced, report := bd.mapped, bd.report

	r := &Result{
		App:        app.Name,
		Variant:    v.Name,
		NumPEs:     mapped.NumPEs(),
		NumMems:    mapped.NumMems(),
		NumRFs:     balanced.NumRegFiles(),
		NumIOs:     mapped.NumIO(),
		NumRegs:    balanced.NumRegs(),
		PELatency:  peLat,
		LatencyCyc: report.TotalLatency,
		Mapped:     mapped,
		Balanced:   balanced,
	}

	usedSB := 0
	if opt.PnR {
		if usedSB, err = f.placeAndRoute(ctx, app, v, balanced, opt, r); err != nil {
			return nil, err
		}
	}

	f.fillMetrics(app, v, r, opt, usedSB)
	if err := f.Tech.Err(); err != nil {
		return nil, fmt.Errorf("core: evaluate %s on %s: %w", app.Name, v.Name, err)
	}
	obs.Logger(ctx).Info("evaluated cell",
		"app", app.Name, "variant", v.Name, "pnr", opt.PnR,
		"pes", r.NumPEs, "latency_cyc", r.LatencyCyc)
	return r, nil
}

// design returns the design build produces, memoized under key when
// this evaluation shares work (see shared). A memo hit still honours
// this cell's cancellation.
func (o EvalOptions) design(ctx context.Context, key string, build func() (*Design, error)) (*Design, error) {
	if !o.shared() {
		return build()
	}
	d, err := o.Memo.Design(ctx, key, build)
	if err == nil {
		err = fault.Canceled(ctx)
	}
	return d, err
}

// placeAndRoute fills the routing fields of r from the cell's layout,
// degrading to the analytical estimate (Routing left nil, Degraded set)
// when the ladder could not complete for a reason retrying will not fix.
// It returns the number of tiles whose switch box the routing uses (0
// when degraded). With a memo (and no stage hook, whose injections must
// see every stage run) a netlist another evaluation already placed is
// not placed again; the hit still honours this cell's cancellation.
func (f *Framework) placeAndRoute(ctx context.Context, app *apps.App, v *PEVariant, balanced *rewrite.Mapped, opt EvalOptions, r *Result) (int, error) {
	build := func(ctx context.Context) (*Layout, error) { return f.layout(ctx, app, v, balanced, opt) }
	var lay *Layout
	var err error
	if opt.shared() {
		lay, err = opt.Memo.Layout(ctx, f.layoutKey(balanced), build)
		if err == nil {
			err = fault.Canceled(ctx)
		}
	} else {
		lay, err = build(ctx)
	}
	if err != nil {
		var se *stageError
		if errors.As(err, &se) {
			return 0, fmt.Errorf("core: %s %s on %s: %w", se.stage, app.Name, v.Name, se.err)
		}
		return 0, err
	}
	r.PnRAttempts = lay.attempts
	if lay.routing == nil {
		r.Degraded = true
		r.DegradedReason = lay.degraded.Error()
		obs.Add(ctx, "pnr.degraded."+lay.metric, 1)
		obs.Logger(ctx).Warn("pnr degraded to analytical estimate",
			"app", app.Name, "variant", v.Name,
			"attempts", r.PnRAttempts, "reason", r.DegradedReason)
		return 0, nil
	}
	// Rebind the shared layout to this cell's design: the bitstream and
	// its decoder read the PE configurations through Placement.Mapped.
	placed := *lay.routing.Placement
	placed.Fabric, placed.Mapped = f.Fabric, balanced
	routing := *lay.routing
	routing.Placement = &placed
	r.Routing = &routing
	r.Routed = true
	r.RoutingTiles = lay.routingTiles
	return lay.usedSBTiles, nil
}

// Layout is the outcome of the place-and-route retry ladder for one
// physical netlist: the routing, or why the ladder degraded, and how
// many attempts it ran. It names no application or variant — the
// routing's placement points at whichever balanced design built it, and
// every evaluation rebinds a copy to its own — so evaluations whose
// designs share a netlist can share one Layout. It is read-only once
// built.
type Layout struct {
	routing  *cgra.Routing // nil when degraded
	attempts int
	degraded error  // why the ladder degraded
	metric   string // pnr.degraded.<metric> counter suffix
	// The routing's tile counts (Routing.RoutingOnlyTiles and
	// UsedSBTiles), counted once per layout: they read only node kinds,
	// locations and route paths, which every design sharing the layout
	// has in common.
	routingTiles, usedSBTiles int
}

// Routing returns the layout's routed design, nil when the ladder
// degraded. Its placement points at whichever design built the layout.
func (l *Layout) Routing() *cgra.Routing { return l.routing }

// Design is what one design stage of an evaluation produced: the mapped
// design of an (application, variant) pair, or its balanced design and
// balance report at one PE latency. It is read-only once built; every
// evaluation that shares it, and its Result, point at the same design.
type Design struct {
	mapped *rewrite.Mapped
	report pipeline.BalanceReport
}

// DesignKeyPrefix is the prefix of every Design key of an (application,
// variant) pair, so a memo can drop one pair's designs. Design keys name
// the pair rather than digest it: a Memo must only be shared by
// evaluations in which an application name and a variant name each
// identify one graph and one rule set, as within one eval.Harness.
func DesignKeyPrefix(app, variant string) string { return app + "|" + variant + "|" }

// Memo shares work between evaluations (EvalOptions.Memo). Each method
// returns the value memoized under key, calling build at most once per
// key among concurrent callers; a caller waiting on another's build
// stops waiting when ctx is done.
type Memo interface {
	// Design memoizes mapped and balanced designs under keys that start
	// with DesignKeyPrefix. Design builds are never canceled.
	Design(ctx context.Context, key string, build func() (*Design, error)) (*Design, error)
	// Layout memoizes place-and-route outcomes under a netlist digest.
	// build receives the context it must run under. A build that fails
	// with fault.ErrCanceled has only been stopped, so it must not be
	// memoized or served to another caller.
	Layout(ctx context.Context, key string, build func(context.Context) (*Layout, error)) (*Layout, error)
}

// stageError is a ladder failure that is not a degradation, tagged with
// the stage it hit; each evaluation names its own cell in the message.
type stageError struct {
	stage string
	err   error
}

func (e *stageError) Error() string { return e.stage + ": " + e.err.Error() }
func (e *stageError) Unwrap() error { return e.err }

// layout walks the retry ladder for a balanced design.
func (f *Framework) layout(ctx context.Context, app *apps.App, v *PEVariant, balanced *rewrite.Mapped, opt EvalOptions) (*Layout, error) {
	ctx, span := obs.StartSpan(ctx, "pnr")
	lay := &Layout{}
	defer func() {
		span.SetAttrs(obs.Int("attempts", lay.attempts), obs.Bool("degraded", lay.degraded != nil))
		span.End()
	}()
	var lastErr error
	for attempt, rung := range pnrLadder {
		lay.attempts++
		obs.Add(ctx, "pnr.attempts", 1)
		if err := opt.hook("place"); err != nil {
			return nil, &stageError{"place", err}
		}
		seed := f.PlaceSeed + rung.SeedOffset
		seeds := rung.Seeds
		if f.PlaceSeeds > seeds {
			seeds = f.PlaceSeeds
		}
		pctx, placeSpan := obs.StartSpan(ctx, "place",
			obs.Int("attempt", attempt+1), obs.Int64("seed", seed), obs.Int("seeds", seeds))
		placed, err := cgra.Place(pctx, balanced, f.Fabric, cgra.PlaceOptions{
			Seed:  seed,
			Moves: f.PlaceMoves,
			Seeds: seeds,
		})
		placeSpan.End()
		if err != nil {
			if errors.Is(err, fault.ErrCapacity) {
				// The design does not fit this fabric; reseeding cannot help.
				lay.degraded, lay.metric = err, "capacity"
				return lay, nil
			}
			return nil, &stageError{"place", err}
		}
		if err := opt.hook("route"); err != nil {
			if errors.Is(err, fault.ErrNonConvergence) {
				lastErr = err
				continue
			}
			return nil, &stageError{"route", err}
		}
		rctx, routeSpan := obs.StartSpan(ctx, "route",
			obs.Int("attempt", attempt+1), obs.Int("max_iters", rung.RouteIters))
		routing, err := cgra.RouteAll(rctx, placed, cgra.RouteOptions{MaxIterations: rung.RouteIters})
		routeSpan.End()
		if err == nil {
			lay.routing = routing
			lay.routingTiles, lay.usedSBTiles = routing.RoutingOnlyTiles(), routing.UsedSBTiles()
			return lay, nil
		}
		if errors.Is(err, fault.ErrCanceled) {
			return nil, err
		}
		if !errors.Is(err, fault.ErrNonConvergence) {
			return nil, &stageError{"route", err}
		}
		lastErr = err
		obs.Logger(ctx).Info("pnr attempt did not converge, walking the retry ladder",
			"app", app.Name, "variant", v.Name, "attempt", attempt+1, "err", err.Error())
	}
	lay.degraded = fmt.Errorf("routing failed after %d attempts: %w", lay.attempts, lastErr)
	lay.metric = "nonconvergence"
	return lay, nil
}

// layoutKey digests exactly what the ladder reads of a design and the
// framework: per node its kind, single producer, and input ports as
// (position, producer) pairs in position order; the fabric; and the
// placement seed, portfolio width, and move budget. Names, rules,
// configurations and FIFO depths do not enter: designs that differ only
// there are the same physical netlist, placed and routed identically.
func (f *Framework) layoutKey(m *rewrite.Mapped) string {
	var e wire.Enc
	fab := f.Fabric
	for _, x := range []int{fab.W, fab.H, fab.MemColumnStride, fab.Tracks16, fab.Tracks1, f.PlaceSeeds, f.PlaceMoves} {
		e.Int(x)
	}
	e.Uvarint(uint64(f.PlaceSeed))
	e.Int(len(m.Nodes))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		e.Int(int(n.Kind))
		e.Int(n.Arg)
		data, bit := n.WiredInputs()
		e.Int(data)
		encodePorts(&e, n.DataIn)
		e.Int(bit)
		encodePorts(&e, n.BitIn)
	}
	sum := sha256.Sum256(e.Buf)
	return hex.EncodeToString(sum[:])
}

// encodePorts writes a port slice's wired (position, producer) pairs
// in position order.
func encodePorts(e *wire.Enc, ports []int) {
	for pos, p := range ports {
		if p >= 0 {
			e.Int(pos)
			e.Int(p)
		}
	}
}

// fillMetrics computes the area/energy/performance roll-ups; usedSB is
// the routed design's switch-box tile count (read only when routed).
func (f *Framework) fillMetrics(app *apps.App, v *PEVariant, r *Result, opt EvalOptions, usedSB int) {
	m := f.Tech

	// --- Area.
	r.PECoreArea = v.CoreArea(m)
	r.TotalPEArea = r.PECoreArea * float64(r.NumPEs)
	r.MemArea = m.MemTile().Area * float64(r.NumMems)
	r.RFArea = m.Unit("regfile").Area * float64(r.NumRFs)

	in16, in1 := v.Spec.NumDataInputs(), v.Spec.NumBitInputs()
	cbPerTile := m.ConnectionBox(in16, in1)
	r.CBArea = cbPerTile.Area * float64(r.NumPEs+r.NumMems)

	sbTiles := r.NumPEs + r.NumMems + r.RoutingTiles
	if r.Routing != nil {
		sbTiles = usedSB
	}
	r.SBArea = m.SwitchBox().Area*float64(sbTiles) +
		m.Unit("pipereg").Area*float64(r.NumRegs)
	r.TotalArea = r.TotalPEArea + r.MemArea + r.RFArea + r.CBArea + r.SBArea

	// --- Energy per produced output batch (one steady-state cycle
	// produces app.Unroll outputs), then normalized per output.
	peE := 0.0
	cbE := 0.0
	for i := range r.Mapped.Nodes {
		n := &r.Mapped.Nodes[i]
		if n.Kind != rewrite.KindPE {
			continue
		}
		peE += v.ActivationEnergy(n.Rule, m)
		d, b := n.WiredInputs()
		cbE += m.Unit("cb16").Energy * float64(d)
		cbE += m.Unit("cb1").Energy * float64(b)
	}
	memE := m.MemTile().Energy * float64(r.NumMems)
	cbE += m.Unit("cb16").Energy * float64(r.NumMems) // memory tile inputs
	sbE := 0.0
	if r.Routing != nil {
		sbE = float64(r.Routing.TotalHops()) * (m.Unit("sbtrack").Energy + m.Unit("wire").Energy)
	} else {
		// Post-mapping estimate: average 2 hops per net.
		nets := 0
		var prods []int
		for i := range r.Mapped.Nodes {
			prods = r.Mapped.Nodes[i].AppendProducers(prods[:0])
			nets += len(prods)
		}
		sbE = float64(2*nets) * (m.Unit("sbtrack").Energy + m.Unit("wire").Energy)
	}
	sbE += m.Unit("pipereg").Energy * float64(r.NumRegs)
	memE += m.Unit("regfile").Energy * float64(r.NumRFs)

	unroll := float64(app.Unroll)
	if unroll < 1 {
		unroll = 1
	}
	r.PEEnergy = peE / unroll
	r.CBEnergy = cbE / unroll
	r.SBEnergy = sbE / unroll
	r.MemEnergy = memE / unroll
	r.TotalEnergy = r.PEEnergy + r.CBEnergy + r.SBEnergy + r.MemEnergy

	// --- Timing: the fabric runs at the paper's global 1.1 ns clock;
	// the period only grows beyond it when unpipelined combinational
	// paths (pre-pipelining mode) cannot fit.
	r.PeriodPS = f.criticalPathPS(v, r, opt)
	if r.PeriodPS < tech.ClockPeriodPS {
		r.PeriodPS = tech.ClockPeriodPS
	}
	cycles := float64(app.TotalOutputs)/unroll + float64(r.LatencyCyc)
	r.CyclesPerRun = cycles
	r.RuntimeMS = cycles * r.PeriodPS * 1e-9 // ps -> ms
	if r.TotalArea > 0 && r.RuntimeMS > 0 {
		outPerMS := float64(app.TotalOutputs) / r.RuntimeMS
		r.PerfPerMM2 = outPerMS / (r.TotalArea * 1e-6) // um^2 -> mm^2
	}
}

// criticalPathPS estimates the post-PnR clock period: the slowest PE
// pipeline stage, extended by unregistered PE-to-PE interconnect
// segments. When the design is unpipelined (PE stages = 0 and no
// balancing registers), combinational paths chain through consecutive
// PEs and routes — the "pre-pipelining" rows of Fig. 16.
func (f *Framework) criticalPathPS(v *PEVariant, r *Result, opt EvalOptions) float64 {
	m := f.Tech
	sbHop := m.Unit("sb").Delay
	cb := m.Unit("cb16").Delay
	peDelay := v.Pipelined.PeriodPS

	mapped := r.Balanced
	if mapped == nil {
		mapped = r.Mapped
	}
	hops := routedHops(r.Routing, len(mapped.Nodes))
	hopsOf := func(src, dst int) float64 {
		h := 2.0 // post-mapping estimate
		if rh := hops.of(src, dst); rh >= 0 {
			h = float64(rh)
		}
		// With application pipelining on, the switch boxes' per-track
		// pipeline registers (paper Section 4.3) break long routes, so
		// at most a couple of hops sit between registers.
		if opt.Pipelined && h > 2 {
			h = 2
		}
		return h
	}

	// Longest register-to-register combinational path over the mapped
	// graph: registers cut paths at PEs with stages>0, interconnect
	// registers, FIFOs, and memories.
	cp := make([]float64, len(mapped.Nodes))
	worst := peDelay
	var prods []int
	for _, i := range mapped.TopoOrder() {
		n := &mapped.Nodes[i]
		in := 0.0
		prods = n.AppendProducers(prods[:0])
		for _, p := range prods {
			d := cp[p] + hopsOf(p, i)*sbHop
			if d > in {
				in = d
			}
		}
		var own float64
		registered := false
		switch n.Kind {
		case rewrite.KindPE:
			own = peDelay + cb
			registered = opt.Pipelined
		case rewrite.KindMem, rewrite.KindRom:
			own = m.Unit("memctrl").Delay
			registered = true
		case rewrite.KindReg, rewrite.KindRegFile:
			own = m.Unit("pipereg").Delay
			registered = true
		case rewrite.KindOutput:
			own = m.Unit("iopad").Delay
		}
		total := in + own
		if total > worst {
			worst = total
		}
		if registered {
			cp[i] = 0
		} else {
			cp[i] = total
		}
	}
	return worst
}

// netHops holds a routing's per-net hop counts grouped by destination
// node: the nets into node d are nets[off[d]:off[d+1]], in route order.
type netHops struct {
	off  []int32
	nets []srcHops
}

type srcHops struct{ src, hops int32 }

// routedHops groups routing's hop counts by destination, for nodes
// below n; a nil routing has none.
func routedHops(routing *cgra.Routing, n int) netHops {
	if routing == nil {
		return netHops{}
	}
	h := netHops{off: make([]int32, n+1)}
	for _, rt := range routing.Routes {
		if d := rt.Net.Dst; d >= 0 && d < n {
			h.off[d+1]++
		}
	}
	for d := 0; d < n; d++ {
		h.off[d+1] += h.off[d]
	}
	h.nets = make([]srcHops, h.off[n])
	// Fill with off[d] as node d's cursor, then shift the cursors (now
	// each node's end) back into starts.
	for _, rt := range routing.Routes {
		if d := rt.Net.Dst; d >= 0 && d < n {
			h.nets[h.off[d]] = srcHops{int32(rt.Net.Src), int32(rt.Hops())}
			h.off[d]++
		}
	}
	copy(h.off[1:], h.off[:n])
	h.off[0] = 0
	return h
}

// of returns the hop count of the last routed net from src to dst (a
// source feeding two ports of one node routes twice), or -1 when none
// was routed.
func (h netHops) of(src, dst int) int {
	if h.off == nil {
		return -1
	}
	for k := h.off[dst+1] - 1; k >= h.off[dst]; k-- {
		if int(h.nets[k].src) == src {
			return int(h.nets[k].hops)
		}
	}
	return -1
}
