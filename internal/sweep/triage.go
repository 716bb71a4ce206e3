package sweep

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Triage: predictor-guided pruning of the PnR oracle.
//
// A sweep's cost is dominated by place-and-route; the front end
// (mining, PE generation, mapping) is shared per variant and cheap. The
// triage stage spends the oracle only where it matters:
//
//  1. Explore: a seeded random band of each app's cells runs the full
//     oracle. Its results label training samples (feature vector plus
//     oracle/post-mapping metric ratios), which are persisted in the
//     content store so later sweeps train on a growing corpus.
//  2. Train: a costmodel regressor is fitted on the corpus — or loaded
//     from the store when this exact run already trained one (the model
//     is keyed by the run fingerprint, so a resumed run can never
//     retrain on a corpus its first half grew and diverge).
//  3. Rank: every remaining cell is scored by its predicted cost
//     (area + energy scalarization plus a routability penalty), per
//     app; the top fraction runs the full oracle, with cells on the
//     model's predicted Pareto frontier taken first so pruning cannot
//     silently drop frontier coverage.
//  4. Fill: everything else gets the model's estimate, tagged
//     Predicted, so reports and the Pareto frontier keep oracle and
//     predicted cells distinguishable.
//
// Every planning decision (explore band, ranking, top cut) is a pure
// function of the grid, the triage knobs, and the trained model — never
// of which cells happened to complete first — so a triaged sweep is
// deterministic at any worker count and resumes byte-identically.

// TriageOptions configures predictor-guided sweep triage.
type TriageOptions struct {
	// Enabled turns triage on. Requires Grid.PnR: without the oracle
	// there is nothing to prune.
	Enabled bool
	// Top is the fraction (0, 1] of each app's non-explore cells that run
	// the full oracle after ranking; 0 means 0.25.
	Top float64
	// Explore is the fraction (0, 1] of each app's cells oracled up front
	// as the seeded exploration band; 0 means 0.1 (at least two cells).
	Explore float64
	// Seed drives the exploration band's shuffle; 0 means 1.
	Seed int64
	// MinTrain is the minimum usable training-sample count; below it the
	// run falls back to the full oracle. 0 means 8.
	MinTrain int
	// Train are the cost-model hyperparameters (zero value = defaults).
	Train costmodel.TrainOptions
}

func (t TriageOptions) top() float64 {
	if t.Top <= 0 {
		return 0.25
	}
	return t.Top
}

func (t TriageOptions) explore() float64 {
	if t.Explore <= 0 {
		return 0.1
	}
	return t.Explore
}

func (t TriageOptions) seed() int64 {
	if t.Seed == 0 {
		return 1
	}
	return t.Seed
}

func (t TriageOptions) minTrain() int {
	if t.MinTrain <= 0 {
		return 8
	}
	return t.MinTrain
}

func (t TriageOptions) validate(g Grid) error {
	if !t.Enabled {
		return nil
	}
	if !g.PnR {
		return fmt.Errorf("sweep: triage requires PnR — without the oracle there is nothing to prune")
	}
	if t.Top < 0 || t.Top > 1 {
		return fmt.Errorf("sweep: triage top fraction %v outside (0, 1]", t.Top)
	}
	if t.Explore < 0 || t.Explore > 1 {
		return fmt.Errorf("sweep: triage explore fraction %v outside (0, 1]", t.Explore)
	}
	if t.MinTrain < 0 {
		return fmt.Errorf("sweep: negative triage min-train %d", t.MinTrain)
	}
	return nil
}

// runFingerprint is the checkpoint/model fingerprint of one run: the
// grid fingerprint, extended with the triage configuration when triage
// is enabled. Non-triaged runs keep the plain grid fingerprint, so
// existing checkpoints stay valid; a triaged and a plain sweep of the
// same grid — or two triaged sweeps with different knobs — never share
// a checkpoint or a model.
func runFingerprint(g Grid, t TriageOptions) store.Key {
	fp := g.Fingerprint()
	if !t.Enabled {
		return fp
	}
	h := store.NewHasher("sweeprun")
	h.Str(string(fp))
	h.Int64(int64(math.Float64bits(t.top())))
	h.Int64(int64(math.Float64bits(t.explore())))
	h.Int64(t.seed())
	h.Int(t.minTrain())
	h.Str(t.Train.Hyper())
	h.Int(costmodel.FeatureSchemaVersion)
	return h.Key()
}

// TriageReport summarizes a triaged run for the report JSON.
type TriageReport struct {
	Top            float64 `json:"top"`
	Explore        float64 `json:"explore"`
	Seed           int64   `json:"seed"`
	ExploreCells   int     `json:"explore_cells"`
	OracleCells    int     `json:"oracle_cells"`
	PredictedCells int     `json:"predicted_cells"`
	// TrainSamples is the corpus size the model was fitted on (or would
	// have been: see Fallback); ModelCached reports whether the model was
	// loaded from the store instead of trained.
	TrainSamples int    `json:"train_samples"`
	ModelCached  bool   `json:"model_cached,omitempty"`
	Hyper        string `json:"hyper"`
	// Fallback is non-empty when the run fell back to the full oracle
	// (too few samples, or training failed) and says why.
	Fallback string `json:"fallback,omitempty"`
	// Accuracy is the model's predicted-vs-actual error on this run's
	// own oracle explore cells; Importances are the top-ranked features.
	Accuracy    []costmodel.Accuracy   `json:"accuracy,omitempty"`
	Importances []costmodel.Importance `json:"importances,omitempty"`
}

// splitmix64 is the exploration band's seeded generator — self-contained
// so the band can never drift with math/rand's stream behavior.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// appOrder returns the distinct app names in cell-index order alongside
// each app's cell indices.
func appOrder(cells []Cell) ([]string, map[string][]int) {
	byApp := map[string][]int{}
	var order []string
	for _, c := range cells {
		if _, ok := byApp[c.App]; !ok {
			order = append(order, c.App)
		}
		byApp[c.App] = append(byApp[c.App], c.Index)
	}
	return order, byApp
}

// exploreSet picks the seeded exploration band: per app, a Fisher-Yates
// shuffle of the app's cell indices driven by splitmix64 seeded from
// (triage seed, app name), taking ceil(explore * n) cells (at least 2).
// A pure function of the grid and the knobs.
func exploreSet(cells []Cell, t TriageOptions) map[int]bool {
	out := map[int]bool{}
	order, byApp := appOrder(cells)
	for _, app := range order {
		idx := append([]int(nil), byApp[app]...)
		rng := &splitmix64{s: uint64(t.seed())*0x9e3779b97f4a7c15 ^ fnv64a(app)}
		for i := len(idx) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			idx[i], idx[j] = idx[j], idx[i]
		}
		n := int(math.Ceil(t.explore() * float64(len(idx))))
		if n < 2 {
			n = 2
		}
		if n > len(idx) {
			n = len(idx)
		}
		for _, i := range idx[:n] {
			out[i] = true
		}
	}
	return out
}

// runTriage drives the four triage stages. Cell failures are recorded
// per cell as elsewhere; cancellation returns early with the checkpoint
// flushed by the caller.
func (e *engine) runTriage(ctx context.Context, rep *Report, cells []Cell, pending []Cell, col *collector) {
	t := e.opt.Triage
	mctx := ctx
	if e.opt.Obs != nil {
		mctx = e.opt.Obs.Reattach(ctx)
	}

	explore := exploreSet(cells, t)
	var phaseA, rest []Cell
	for _, c := range pending {
		if explore[c.Index] {
			phaseA = append(phaseA, c)
		} else {
			rest = append(rest, c)
		}
	}
	e.count("sweep.triage.explore_cells", int64(len(phaseA)))

	info := &TriageReport{
		Top: t.top(), Explore: t.explore(), Seed: t.seed(),
		ExploreCells: len(explore), Hyper: t.Train.Hyper(),
	}
	rep.Triage = info
	defer func() {
		for i := range rep.Results {
			r := &rep.Results[i]
			if r.Err != "" {
				continue
			}
			if r.Predicted {
				info.PredictedCells++
			} else {
				info.OracleCells++
			}
		}
		e.count("sweep.triage.oracle_cells", int64(info.OracleCells))
		e.count("sweep.triage.predicted_cells", int64(info.PredictedCells))
	}()

	// Stage 1: oracle the exploration band.
	e.runPhase(ctx, phaseA, col)
	if fault.Canceled(ctx) != nil {
		return
	}

	// The planning stages below are serial; compute every distinct
	// variant's post-mapping evaluation (the feature-vector backbone) in
	// parallel up front so they only ever hit the singleflight cache.
	e.warmPostmaps(ctx, cells)
	if fault.Canceled(ctx) != nil {
		return
	}

	// Stage 2: build samples from the band's oracle results (resumed or
	// just computed — rep holds both) and load or train the model.
	model := e.triageModel(mctx, rep, explore, info)
	if model == nil {
		// Fallback: the model is unusable; oracle everything.
		e.runPhase(ctx, rest, col)
		return
	}

	// Stage 3: rank every non-explore cell per app by predicted cost and
	// select the top fraction for the oracle. The selection ranges over
	// all non-explore cells — including resumed ones — so it is a pure
	// function of the grid and the model, not of resume state.
	selected := e.selectTop(ctx, cells, explore, model, t)
	var phaseB, fill []Cell
	for _, c := range rest {
		if selected[c.Index] {
			phaseB = append(phaseB, c)
		} else {
			fill = append(fill, c)
		}
	}
	e.runPhase(ctx, phaseB, col)
	if fault.Canceled(ctx) != nil {
		return
	}

	// Stage 4: fill the pruned cells with the model's estimates.
	for _, c := range fill {
		if fault.Canceled(ctx) != nil {
			return
		}
		col.record(e.predictCell(ctx, c, model))
	}
}

// warmPostmaps evaluates every distinct variant's post-mapping result
// on the configured worker count. Purely a latency optimization: the
// singleflight entries make later per-cell feature extraction a cache
// hit, and cell-level errors still surface through cellFeatures.
func (e *engine) warmPostmaps(ctx context.Context, cells []Cell) {
	seen := map[string]bool{}
	var uniq []Cell
	for _, c := range cells {
		if name := c.VariantName(); !seen[name] {
			seen[name] = true
			uniq = append(uniq, c)
		}
	}
	nw := e.opt.workers()
	if nw > len(uniq) {
		nw = len(uniq)
	}
	work := make(chan Cell)
	done := make(chan struct{})
	for w := 0; w < nw; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for c := range work {
				// The serial stages call cellFeatures again and see
				// any error there; the guard only keeps a panic from
				// ending the process.
				_ = fault.Guard("sweep: features "+c.String(), func() error {
					_, _, err := e.cellFeatures(ctx, c)
					return err
				})
			}
		}()
	}
	for _, c := range uniq {
		if fault.Canceled(ctx) != nil {
			break
		}
		work <- c
	}
	close(work)
	for w := 0; w < nw; w++ {
		<-done
	}
}

// knobsFor lifts a cell's backend axes into the feature vector's knob
// block.
func (e *engine) knobsFor(c Cell, fw *core.Framework) costmodel.Knobs {
	return costmodel.Knobs{
		FabricW: c.FabricW, FabricH: c.FabricH,
		Tracks16: fw.Fabric.Tracks16, Tracks1: fw.Fabric.Tracks1,
		Seed: c.Seed, Support: c.Support, K: c.K,
	}
}

// postmap returns the cell's variant evaluated to the analytical
// post-mapping level with artifacts attached, memoized per variant:
// post-mapping metrics depend only on the variant (never the fabric or
// seed), so every cell of a variant shares one evaluation, and its
// mapped and balanced designs are the ones the variant's oracle cells
// reuse. The store is deliberately not consulted — cached results carry
// no Mapped artifact, and feature extraction needs the graph.
func (e *engine) postmap(ctx context.Context, c Cell, app *apps.App, v *core.PEVariant, fw *core.Framework) (*core.Result, error) {
	return e.postmaps.Do(ctx, c.VariantName(), func() (*core.Result, error) {
		return fw.Evaluate(ctx, app, v, core.EvalOptions{PnR: false, Pipelined: e.grid.Pipelined, Memo: e.h.Memo()})
	})
}

// cellFeatures computes one cell's feature vector (and returns the
// post-mapping result backing it).
func (e *engine) cellFeatures(ctx context.Context, c Cell) (*core.Result, []float64, error) {
	app, err := apps.ByName(c.App)
	if err != nil {
		return nil, nil, err
	}
	fw := e.frameworkFor(c)
	v, err := e.variant(c, app, fw)
	if err != nil {
		return nil, nil, err
	}
	post, err := e.postmap(ctx, c, app, v, fw)
	if err != nil {
		return nil, nil, err
	}
	return post, costmodel.Features(post, v, e.knobsFor(c, fw)), nil
}

// ratio guards the oracle/postmap label against a zero denominator.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}

// sampleFor labels one oracle cell result against its post-mapping
// baseline.
func sampleFor(features []float64, r *CellResult, post *core.Result) costmodel.Sample {
	s := costmodel.Sample{Features: features}
	s.Labels[costmodel.TargetArea] = ratio(r.TotalArea, post.TotalArea)
	s.Labels[costmodel.TargetEnergy] = ratio(r.TotalEnergy, post.TotalEnergy)
	s.Labels[costmodel.TargetRuntime] = ratio(r.RuntimeMS, post.RuntimeMS)
	s.Labels[costmodel.TargetRoutability] = r.Routability
	return s
}

// triageModel builds training samples from the exploration band's
// oracle results, persists them, and loads or trains the model. Returns
// nil (with info.Fallback set) when the model cannot be trusted.
func (e *engine) triageModel(mctx context.Context, rep *Report, explore map[int]bool, info *TriageReport) *costmodel.Model {
	t := e.opt.Triage
	st := e.h.Store()

	// In-run samples: every explore cell with an oracle result, in cell
	// index order. These double as the validation set.
	exploreIdx := make([]int, 0, len(explore))
	for i := range explore {
		exploreIdx = append(exploreIdx, i)
	}
	sort.Ints(exploreIdx)
	var inRun []costmodel.Sample
	for _, i := range exploreIdx {
		r := &rep.Results[i]
		if r.Err != "" {
			continue
		}
		post, features, err := e.cellFeatures(mctx, r.Cell)
		if err != nil {
			continue
		}
		s := sampleFor(features, r, post)
		inRun = append(inRun, s)
		if st != nil {
			app, err := apps.ByName(r.App)
			if err != nil {
				continue
			}
			rk := e.h.ResultKey(e.frameworkFor(r.Cell), app, r.Variant, true, e.grid.Pipelined)
			st.Put(store.KindSample, store.SampleKey(rk, costmodel.FeatureSchemaVersion), s.Encode())
		}
	}

	// Model cache: a model trained by this exact run configuration is
	// reused, so a resumed run ranks with the identical model even though
	// its sample corpus has since grown.
	fp := store.Key(rep.Fingerprint)
	mk := store.ModelKey(fp, costmodel.FeatureSchemaVersion, t.Train.Hyper())
	var model *costmodel.Model
	if st != nil {
		if payload, ok := st.Get(store.KindModel, mk); ok {
			if m, err := costmodel.DecodeModel(payload); err == nil {
				model = m
				info.ModelCached = true
				info.TrainSamples = m.SampleCount
			}
		}
	}

	if model == nil {
		// Corpus: with a store, every persisted sample (sorted by content
		// key — worker- and run-order-invariant); without one, this run's
		// own explore samples.
		corpus := inRun
		if st != nil {
			corpus = nil
			st.Scan(store.KindSample, func(_ store.Key, payload []byte) error {
				if s, err := costmodel.DecodeSample(payload); err == nil {
					corpus = append(corpus, *s)
				}
				return nil
			})
		}
		info.TrainSamples = len(corpus)
		if len(corpus) < t.minTrain() {
			info.Fallback = fmt.Sprintf("%d training samples, need %d — running full oracle", len(corpus), t.minTrain())
			e.logger().Warn("triage fallback", "reason", info.Fallback)
			return nil
		}
		m, err := costmodel.Train(mctx, corpus, t.Train)
		if err != nil {
			info.Fallback = fmt.Sprintf("training failed (%v) — running full oracle", err)
			e.logger().Warn("triage fallback", "reason", info.Fallback)
			return nil
		}
		model = m
		if st != nil {
			st.Put(store.KindModel, mk, model.Encode())
		}
	}

	// Predicted-vs-actual accuracy on this run's own oracle cells, plus
	// the error histograms and feature-importance gauges for /metrics.
	info.Accuracy = model.Validate(inRun)
	for _, s := range inRun {
		p := model.Predict(s.Features)
		err := math.Abs(p.AreaRatio - s.Labels[costmodel.TargetArea])
		obs.Observe(mctx, "costmodel.abs_err_bp", int64(math.Round(err*1e4)))
		if l := s.Labels[costmodel.TargetArea]; l > 0 {
			obs.Observe(mctx, "costmodel.rel_err_bp", int64(math.Round(err/l*1e4)))
		}
	}
	imps := model.Importances()
	if len(imps) > 8 {
		imps = imps[:8]
	}
	for _, imp := range imps {
		obs.SetGauge(mctx, "costmodel.importance."+imp.Name, int64(math.Round(imp.Weight*1e4)))
	}
	info.Importances = imps
	return model
}

// selectTop picks each app's oracle set, sized at the top fraction of
// its non-explore cells: cells on the model's predicted Pareto frontier
// come first (pruning must not cost real frontier coverage — the
// bench's hypervolume-regret gate), the rest rank by scalarized
// predicted cost — predicted area and energy normalized by the app's
// best prediction, plus a routability penalty. Cells whose front end
// fails are selected too, so their error surfaces through a real
// evaluation rather than a silent prediction. Deterministic: the
// frontier and scores are pure model outputs and ties break by cell
// index.
func (e *engine) selectTop(ctx context.Context, cells []Cell, explore map[int]bool, model *costmodel.Model, t TriageOptions) map[int]bool {
	selected := map[int]bool{}
	order, byApp := appOrder(cells)
	for _, app := range order {
		type scored struct {
			index int
			score float64
		}
		var cand []scored
		minArea, minEnergy := math.Inf(1), math.Inf(1)
		preds := map[int][2]float64{} // index -> predicted (area, energy)
		routs := map[int]float64{}
		for _, i := range byApp[app] {
			if explore[i] {
				continue
			}
			post, features, err := e.cellFeatures(ctx, cells[i])
			if err != nil {
				selected[i] = true // surface the failure via the oracle path
				continue
			}
			p := model.Predict(features)
			pa := post.TotalArea * p.AreaRatio
			pe := post.TotalEnergy * p.EnergyRatio
			preds[i] = [2]float64{pa, pe}
			routs[i] = p.Routability
			if pa > 0 && pa < minArea {
				minArea = pa
			}
			if pe > 0 && pe < minEnergy {
				minEnergy = pe
			}
			cand = append(cand, scored{index: i})
		}
		for j := range cand {
			p := preds[cand[j].index]
			score := 0.0
			if minArea > 0 && !math.IsInf(minArea, 1) {
				score += p[0] / minArea
			}
			if minEnergy > 0 && !math.IsInf(minEnergy, 1) {
				score += p[1] / minEnergy
			}
			score += 1 - routs[cand[j].index]
			cand[j].score = score
		}
		dominates := func(a, b int) bool {
			pa, pb := preds[a], preds[b]
			if pa[0] > pb[0] || pa[1] > pb[1] || routs[a] < routs[b] {
				return false
			}
			return pa[0] < pb[0] || pa[1] < pb[1] || routs[a] > routs[b]
		}
		onFrontier := map[int]bool{}
		for j := range cand {
			if _, ok := preds[cand[j].index]; !ok {
				continue
			}
			dominated := false
			for k := range cand {
				if k == j {
					continue
				}
				if _, ok := preds[cand[k].index]; ok && dominates(cand[k].index, cand[j].index) {
					dominated = true
					break
				}
			}
			if !dominated {
				onFrontier[cand[j].index] = true
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			if fa, fb := onFrontier[cand[a].index], onFrontier[cand[b].index]; fa != fb {
				return fa
			}
			if cand[a].score != cand[b].score {
				return cand[a].score < cand[b].score
			}
			return cand[a].index < cand[b].index
		})
		n := int(math.Ceil(t.top() * float64(len(cand))))
		if n > len(cand) {
			n = len(cand)
		}
		for _, s := range cand[:n] {
			selected[s.index] = true
		}
	}
	return selected
}

// predictCell fills one pruned cell from the model: the post-mapping
// estimate scaled by the predicted oracle ratios.
func (e *engine) predictCell(ctx context.Context, c Cell, model *costmodel.Model) CellResult {
	res := CellResult{Cell: c, Variant: c.VariantName(), Predicted: true}
	app, err := apps.ByName(c.App)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	post, features, err := e.cellFeatures(ctx, c)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	p := model.Predict(features)
	res.NumPEs = post.NumPEs
	res.TotalArea = post.TotalArea * p.AreaRatio
	res.TotalEnergy = post.TotalEnergy * p.EnergyRatio
	res.RuntimeMS = post.RuntimeMS * p.RuntimeRatio
	if res.TotalArea > 0 && res.RuntimeMS > 0 {
		outPerMS := float64(app.TotalOutputs) / res.RuntimeMS
		res.PerfPerMM2 = outPerMS / (res.TotalArea * 1e-6)
	}
	res.Routability = p.Routability
	return res
}
