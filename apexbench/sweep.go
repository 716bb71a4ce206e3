package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/cgra"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The sweep-triage workload runs sweep.Run with predictor-guided triage
// on a place-and-route grid that differs from the camera+harris grid
// the triage gates were tuned on: four applications (two of them, plus
// an ML layer, never used for tuning), two mining supports, six merged
// subgraph counts and two seeded placement seeds. Each iteration gets a
// fresh store and checkpoint, so every analysis, variant, sample and
// result is computed and written.

// sweepWorkers is the shard-worker count (the machine has two CPUs).
const sweepWorkers = 2

func sweepGrid(seed int64) sweep.Grid {
	rng := rand.New(rand.NewSource(seed))
	s1 := int64(1 + rng.Intn(1000))
	s2 := s1
	for s2 == s1 {
		s2 = int64(1 + rng.Intn(1000))
	}
	return sweep.Grid{
		Apps:      []string{"camera", "harris", "unsharp", "resnet"},
		Supports:  []int{0, 8},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{s1, s2},
		Ks:        []int{1, 2, 3, 4, 5, 6},
		PnR:       true,
		Pipelined: true,
	}
}

// triageOptions is the triage setting the sweep-triage gates were set
// at: top 10%, a 10% exploration band, triage seed 1.
var triageOptions = sweep.TriageOptions{Enabled: true, Top: 0.1, Explore: 0.1, Seed: 1, MinTrain: 2}

// canonicalReport renders a report for the across-iteration identity
// gate: the steal count is a scheduler statistic that varies with
// timing, so it is zeroed.
func canonicalReport(rep *sweep.Report) ([]byte, error) {
	c := *rep
	c.Steals = 0
	return json.Marshal(&c)
}

// checkOracle compares every oracle cell of a triaged report with the
// same cell of the full-oracle reference.
func checkOracle(rep, ref *sweep.Report) error {
	if rep.Failed > 0 {
		return gatef("sweep-triage: %d failed cells", rep.Failed)
	}
	if rep.Triage == nil || rep.Triage.Fallback != "" {
		return gatef("sweep-triage: the run did not triage (%+v)", rep.Triage)
	}
	for i := range rep.Results {
		r := rep.Results[i]
		if r.Predicted {
			continue
		}
		if r != ref.Results[i] {
			return gatef("sweep-triage: oracle cell %d (%s) = %+v, full-oracle reference has %+v", i, r.Cell, r, ref.Results[i])
		}
	}
	return nil
}

func runSweepTriage(cfg *config, res *result, tr *tracer) error {
	g := sweepGrid(cfg.seed)
	ctx := context.Background()

	// The full-oracle reference: untimed, once per invocation.
	refDir, err := cfg.mkdir("sweep-ref")
	if err != nil {
		return err
	}
	ref, err := sweep.Run(ctx, g, sweep.Options{Workers: sweepWorkers, CacheDir: refDir})
	if err != nil {
		return err
	}
	if ref.Failed > 0 {
		return gatef("sweep-triage: %d failed cells in the full-oracle reference", ref.Failed)
	}

	// Set-up: grid validation and expansion, the run fingerprint (which
	// hashes the application registry), and opening a fresh store (the
	// empty directories are made untimed).
	const samples, batch = 25, 5
	dirs, err := cfg.mkdirs("sweep-setup", samples*batch)
	if err != nil {
		return err
	}
	setupS, err := setupMedian(samples, batch, func() (func() error, error) {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		g.Cells()
		g.Fingerprint()
		_, err := store.Open(dirs[0])
		dirs = dirs[1:]
		return nil, err
	})
	if err != nil {
		return err
	}

	var first []byte
	iterate := func(i int, onCell func(int, int, sweep.CellResult)) (*sweep.Report, string, error) {
		dir, err := cfg.mkdir(fmt.Sprintf("sweep-%d", i))
		if err != nil {
			return nil, "", err
		}
		rep, err := sweep.Run(ctx, g, sweep.Options{
			Workers:    sweepWorkers,
			CacheDir:   filepath.Join(dir, "cache"),
			Checkpoint: filepath.Join(dir, "checkpoint.json"),
			Triage:     triageOptions,
			OnCell:     onCell,
		})
		if err != nil {
			return nil, "", err
		}
		if err := checkOracle(rep, ref); err != nil {
			return nil, "", err
		}
		canon, err := canonicalReport(rep)
		if err != nil {
			return nil, "", err
		}
		if first == nil {
			first = canon
		} else if !bytes.Equal(canon, first) {
			return nil, "", gatef("sweep-triage: report of iteration %d differs from the first iteration's", i)
		}
		return rep, filepath.Join(dir, "cache"), nil
	}

	mem0 := readMem()
	cells, failedCells := 0, 0
	var steals []float64
	var hits, misses, puts int64
	sweeps, busy, err := timedLoop(res, cfg.seconds, 3, func(i int) error {
		rep, _, err := iterate(i, nil)
		if err != nil {
			return err
		}
		res.attempted++
		cells += len(rep.Results)
		failedCells += rep.Failed
		steals = append(steals, float64(rep.Steals))
		hits += rep.Store.Hits
		misses += rep.Store.Misses
		puts += rep.Store.Puts
		return nil
	})
	if err != nil {
		return err
	}
	mem1 := readMem()
	if tr == nil {
		setEndToEnd(res, setupS, sweeps, sweeps, busy, cells)
		return nil
	}

	setLayerDefaults(res)
	setRuntime(res, mem0, mem1, len(sweeps))
	n := float64(len(sweeps))
	res.set("store.hits", float64(hits)/n, "count", len(sweeps))
	res.set("store.misses", float64(misses)/n, "count", len(sweeps))
	res.set("store.puts", float64(puts)/n, "count", len(sweeps))
	res.set("sweep.steals", quantile(steals, 0.5), "count", len(sweeps))
	res.set("error_rate", float64(failedCells)/float64(max(cells, 1)), "ratio", cells)

	// The traced iteration: one more sweep with cell-completion times
	// recorded, then the replay of everything it computed.
	var gaps []float64
	last := time.Now()
	rep, dir, err := iterate(len(sweeps), func(_, _ int, _ sweep.CellResult) {
		now := time.Now()
		gaps = append(gaps, float64(now.Sub(last))/float64(time.Millisecond))
		last = now
	})
	if err != nil {
		return err
	}
	res.set("sweep.cells", float64(len(rep.Results)), "count", 1)
	res.set("sweep.failed", float64(rep.Failed), "count", 1)
	res.set("sweep.oracle_frac", float64(rep.Triage.OracleCells)/float64(len(rep.Results)), "ratio", 1)
	res.set("sweep.cell_gap_p50_ms", quantile(gaps, 0.5), "ms", len(gaps))
	res.set("costmodel.train_samples", float64(rep.Triage.TrainSamples), "count", 1)
	res.set("costmodel.area_err_pct", predictedAreaErrPct(rep, ref), "%", rep.Triage.PredictedCells)
	res.set("frontier_regret_pct", 100*hypervolumeRegret(ref, rep), "%", 1)
	oracle, degraded := 0, 0
	for _, r := range rep.Results {
		if !r.Predicted {
			oracle++
			degraded += b2i(r.Degraded)
		}
	}
	res.set("degraded_frac", float64(degraded)/float64(max(oracle, 1)), "ratio", oracle)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	diskBytes, entries := st.DiskBytes()
	res.set("store.entries", float64(entries), "count", 1)
	res.set("store.disk_bytes", float64(diskBytes), "bytes", 1)

	t0 := time.Now()
	rp := newReplayer(tr, cfg.seed)
	replayed, err := replaySweep(cfg, rp, g, rep, st)
	if err != nil {
		return err
	}
	replayMS := float64(time.Since(t0)) / float64(time.Millisecond)
	tr.setLayers(res)
	res.set("verify.replayed_cells", float64(replayed), "count", 1)
	res.set("verify.equiv_designs", float64(rp.equivDesigns), "count", 1)
	res.set("trace.overhead_ms", replayMS-1000*quantile(sweeps, 0.5), "ms", 1)
	return nil
}

// frameworkFor is the per-cell framework sweep.Run builds: the paper
// defaults with the cell's support, fabric and placement seed, mining
// serially.
func frameworkFor(c sweep.Cell) *core.Framework {
	fw := core.New()
	fw.MinSupport = c.Support
	fw.Fabric = cgra.NewFabric(c.FabricW, c.FabricH)
	fw.PlaceSeed = c.Seed
	fw.MineWorkers = 1
	return fw
}

// replaySweep re-runs a sweep's computation in the engine's order:
// mining per (app, support), PE generation per (app, support, k), the
// post-mapping evaluation and feature vector of every cell, cost-model
// training on the stored samples, full PnR of the oracle cells, and
// the store traffic of every entry. Each replayed analysis, variant
// and oracle result must encode byte-identically to the stored one.
// It returns the number of oracle cells replayed.
func replaySweep(cfg *config, rp *replayer, g sweep.Grid, rep *sweep.Report, st *store.Store) (int, error) {
	t := rp.t
	registry := store.RegistryHash()
	analyses := map[string]*core.Analysis{}
	variants := map[string]*core.PEVariant{}
	posts := map[string]*core.Result{}
	for _, c := range g.Cells() {
		app, err := apps.ByName(c.App)
		if err != nil {
			return 0, err
		}
		fw := frameworkFor(c)
		akey := fmt.Sprintf("%s|s%d", c.App, c.Support)
		an := analyses[akey]
		if an == nil {
			if an, err = rp.analyze(fw, app); err != nil {
				return 0, err
			}
			want, _ := st.Get(store.KindAnalysis, store.AnalysisKey(store.AppHash(app), fw))
			if !bytes.Equal(store.EncodeAnalysis(an), want) {
				return 0, gatef("sweep-triage: replayed analysis %s differs from the stored one", akey)
			}
			analyses[akey] = an
		}
		name := c.VariantName()
		v := variants[name]
		if v == nil {
			rc := peRecipe{name: name, baseOps: app.UsedOps(), ranked: core.SelectPatterns(an, c.K)}
			if v, err = rp.generate(fw, rc); err != nil {
				return 0, err
			}
			want, _ := st.Get(store.KindVariant, store.VariantKey(name, registry, fw))
			if !bytes.Equal(store.EncodeVariant(v), want) {
				return 0, gatef("sweep-triage: replayed variant %s differs from the stored one", name)
			}
			variants[name] = v
			post, err := rp.evaluate(fw, app, v, core.EvalOptions{PnR: false, Pipelined: g.Pipelined})
			if err != nil {
				return 0, err
			}
			posts[name] = post
		}
		knobs := costmodel.Knobs{
			FabricW: c.FabricW, FabricH: c.FabricH,
			Tracks16: fw.Fabric.Tracks16, Tracks1: fw.Fabric.Tracks1,
			Seed: c.Seed, Support: c.Support, K: c.K,
		}
		t.do("costmodel.features", func() { costmodel.Features(posts[name], v, knobs) })
	}

	var samples []costmodel.Sample
	err := st.Scan(store.KindSample, func(_ store.Key, payload []byte) error {
		s, err := costmodel.DecodeSample(payload)
		if err == nil {
			samples = append(samples, *s)
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	if len(samples) != rep.Triage.TrainSamples {
		return 0, gatef("sweep-triage: %d stored samples, the model trained on %d", len(samples), rep.Triage.TrainSamples)
	}
	t.do("costmodel.train", func() { _, err = costmodel.Train(rp.ctx, samples, triageOptions.Train) })
	if err != nil {
		return 0, err
	}

	oracle := 0
	for _, r := range rep.Results {
		if r.Predicted {
			continue
		}
		app, err := apps.ByName(r.App)
		if err != nil {
			return 0, err
		}
		fw := frameworkFor(r.Cell)
		v := variants[r.Variant]
		real, err := rp.evaluate(fw, app, v, core.EvalOptions{PnR: g.PnR, Pipelined: g.Pipelined})
		if err != nil {
			return 0, err
		}
		key := store.ResultKey(store.AppHash(app), store.VariantKey(v.Name, registry, fw), fw, g.PnR, g.Pipelined)
		want, _ := st.Get(store.KindResult, key)
		if !bytes.Equal(store.EncodeResult(real), want) {
			return 0, gatef("sweep-triage: replayed result of cell %d (%s) differs from the stored one", r.Index, r.Cell)
		}
		oracle++
	}

	// Store traffic: every entry read and decoded, then written to a
	// scratch store, as the run's misses-then-puts did.
	putDir, err := cfg.mkdir("sweep-replay-puts")
	if err != nil {
		return 0, err
	}
	scratch, err := store.Open(putDir)
	if err != nil {
		return 0, err
	}
	tech := core.New().Tech
	for _, kind := range []store.Kind{store.KindAnalysis, store.KindVariant, store.KindResult, store.KindSample, store.KindModel} {
		keys, err := scanKeys(st, kind)
		if err != nil {
			return 0, err
		}
		for _, key := range keys {
			var payload []byte
			var ok bool
			t.do("store.get", func() { payload, ok = st.Get(kind, key) })
			if !ok {
				return 0, gatef("sweep-triage: stored %s %s vanished", kind, key)
			}
			var derr error
			t.do("store.decode", func() {
				switch kind {
				case store.KindAnalysis:
					_, derr = store.DecodeAnalysis(payload)
				case store.KindVariant:
					_, derr = store.DecodeVariant(payload, tech)
				case store.KindResult:
					_, derr = store.DecodeResult(payload)
				case store.KindSample:
					_, derr = costmodel.DecodeSample(payload)
				case store.KindModel:
					_, derr = costmodel.DecodeModel(payload)
				}
			})
			if derr != nil {
				return 0, fmt.Errorf("sweep-triage: decode %s: %w", kind, derr)
			}
			t.do("store.put", func() { scratch.Put(kind, key, payload) })
		}
	}
	return oracle, nil
}

// predictedAreaErrPct is the mean absolute error of the model's area
// estimates over the predicted cells, against the full-oracle reference.
func predictedAreaErrPct(rep, ref *sweep.Report) float64 {
	sum, n := 0.0, 0
	for i, r := range rep.Results {
		if !r.Predicted || ref.Results[i].TotalArea <= 0 {
			continue
		}
		sum += 100 * math.Abs(r.TotalArea-ref.Results[i].TotalArea) / ref.Results[i].TotalArea
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// hypervolumeRegret is the share of the full-oracle frontier's total
// (area, energy) hypervolume that the triaged run's oracle frontier
// loses, per application against a reference point 1.1x the worst
// frontier corner, summed over applications.
func hypervolumeRegret(ref, tri *sweep.Report) float64 {
	fullPts := sweep.FrontierPoints(ref.Results, ref.Frontier)
	triPts := sweep.FrontierPoints(tri.Results, tri.FrontierOracle)
	var hvFull, hvTri float64
	for app, fp := range fullPts {
		var corner [2]float64
		for _, p := range append(append([][2]float64{}, fp...), triPts[app]...) {
			corner[0] = max(corner[0], p[0])
			corner[1] = max(corner[1], p[1])
		}
		corner[0] *= 1.1
		corner[1] *= 1.1
		hvFull += sweep.Hypervolume2D(fp, corner)
		hvTri += sweep.Hypervolume2D(triPts[app], corner)
	}
	if hvFull <= 0 {
		return 0
	}
	return (hvFull - hvTri) / hvFull
}
