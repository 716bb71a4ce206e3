package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/costmodel"
	"repro/internal/store"
)

// triageGrid is a small PnR grid with enough backend cells per variant
// for the triage stages to be non-trivial.
func triageGrid() Grid {
	return Grid{
		Apps:      []string{"camera"},
		Supports:  []int{0},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1, 2, 3, 4, 5, 6},
		Ks:        []int{1, 2},
		PnR:       true,
		Pipelined: true,
	}
}

func triageOpts() TriageOptions {
	return TriageOptions{Enabled: true, Top: 0.25, Explore: 0.1, Seed: 1, MinTrain: 2}
}

// gateGrid is the triage gate's grid: two apps, eight k values and
// five placement seeds, 80 PnR cells.
func gateGrid() Grid {
	return Grid{
		Apps:      []string{"camera", "harris"},
		Supports:  []int{0},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1, 2, 3, 4, 5},
		Ks:        []int{1, 2, 3, 4, 5, 6, 7, 8},
		PnR:       true,
		Pipelined: true,
	}
}

// gateTriage sends a tenth of the gate grid to the oracle by rank and a
// tenth by exploration.
func gateTriage() TriageOptions {
	return TriageOptions{Enabled: true, Top: 0.1, Explore: 0.1, Seed: 1, MinTrain: 2}
}

// regretPct is the share of the full-oracle frontier's hypervolume the
// triaged run's oracle cells lose, over the sweep's total across apps.
// Per app, the union-of-rectangles hypervolume (minimizing area and
// energy, reference point 1.1x the worst frontier corner).
func regretPct(full, tri *Report) float64 {
	var hvFullSum, hvTriSum float64
	fullPts := FrontierPoints(full.Results, full.Frontier)
	triPts := FrontierPoints(tri.Results, tri.FrontierOracle)
	for app, fp := range fullPts {
		var ref [2]float64
		for _, p := range append(append([][2]float64{}, fp...), triPts[app]...) {
			ref[0] = max(ref[0], p[0])
			ref[1] = max(ref[1], p[1])
		}
		ref[0] *= 1.1
		ref[1] *= 1.1
		hvFull := Hypervolume2D(fp, ref)
		if hvFull <= 0 {
			continue
		}
		hvFullSum += hvFull
		hvTriSum += Hypervolume2D(triPts[app], ref)
	}
	if hvFullSum <= 0 {
		return 0
	}
	return 100 * (hvFullSum - hvTriSum) / hvFullSum
}

// TestTriageRegretWithinBound: on the gate's grid, the triaged run's
// oracle-only frontier keeps all but at most 2% of the full-oracle
// frontier's hypervolume. Deterministic, so it holds the regret half of
// TestGateTriageSpeedup in the tier-1 suite without its timing half.
func TestTriageRegretWithinBound(t *testing.T) {
	g := gateGrid()
	full := mustRun(t, g, Options{Workers: 2})
	tri := mustRun(t, g, Options{Workers: 2, Triage: gateTriage()})
	if tri.Triage == nil || tri.Triage.Fallback != "" {
		t.Fatalf("triaged run did not triage: %+v", tri.Triage)
	}
	r := regretPct(full, tri)
	t.Logf("%d oracle + %d predicted cells: regret %.3f%%", tri.Triage.OracleCells, tri.Triage.PredictedCells, r)
	if r > 2 {
		t.Errorf("hypervolume regret = %.3f%%, want <= 2%%", r)
	}
}

func TestTriageRequiresPnR(t *testing.T) {
	g := triageGrid()
	g.PnR = false
	_, err := Run(context.Background(), g, Options{Workers: 1, Triage: triageOpts()})
	if err == nil {
		t.Fatal("triage without PnR must be rejected")
	}
}

func TestRunFingerprintTriageSensitivity(t *testing.T) {
	g := triageGrid()
	base := runFingerprint(g, triageOpts())
	if runFingerprint(g, TriageOptions{}) != g.Fingerprint() {
		t.Fatal("disabled triage must keep the plain grid fingerprint")
	}
	mutate := map[string]TriageOptions{}
	o := triageOpts()
	o.Top = 0.5
	mutate["top"] = o
	o = triageOpts()
	o.Explore = 0.3
	mutate["explore"] = o
	o = triageOpts()
	o.Seed = 7
	mutate["seed"] = o
	o = triageOpts()
	o.MinTrain = 5
	mutate["min-train"] = o
	for knob, m := range mutate {
		if runFingerprint(g, m) == base {
			t.Errorf("run fingerprint ignores the triage %s knob", knob)
		}
	}
}

func TestExploreSetIsSeededAndPure(t *testing.T) {
	cells := triageGrid().Cells()
	a := exploreSet(cells, triageOpts())
	if !reflect.DeepEqual(a, exploreSet(cells, triageOpts())) {
		t.Fatal("explore set is not a pure function of grid and knobs")
	}
	// At least two cells per app, bounded by the fraction.
	if len(a) < 2 || len(a) >= len(cells) {
		t.Fatalf("explore band size %d of %d cells", len(a), len(cells))
	}
	other := triageOpts()
	other.Seed = 99
	if reflect.DeepEqual(a, exploreSet(cells, other)) {
		t.Fatal("explore set ignores the seed")
	}
}

func TestTriagePrunesAndMarksPredicted(t *testing.T) {
	g := triageGrid()
	ck := filepath.Join(t.TempDir(), "ck.json")
	rep := mustRun(t, g, Options{Workers: 2, Triage: triageOpts(), Checkpoint: ck})

	if rep.Triage == nil {
		t.Fatal("triaged run carries no TriageReport")
	}
	if rep.Triage.Fallback != "" {
		t.Fatalf("unexpected fallback: %s", rep.Triage.Fallback)
	}
	if rep.Predicted == 0 {
		t.Fatal("triage predicted no cells — nothing was pruned")
	}
	if rep.Predicted+rep.Computed != len(rep.Results) {
		t.Fatalf("predicted %d + computed %d != %d cells", rep.Predicted, rep.Computed, len(rep.Results))
	}
	if rep.Triage.OracleCells != rep.Computed || rep.Triage.PredictedCells != rep.Predicted {
		t.Fatalf("triage summary (%d oracle, %d predicted) disagrees with report (%d, %d)",
			rep.Triage.OracleCells, rep.Triage.PredictedCells, rep.Computed, rep.Predicted)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("cell %d failed: %s", r.Index, r.Err)
		}
		if r.TotalArea <= 0 || r.TotalEnergy <= 0 || r.RuntimeMS <= 0 {
			t.Fatalf("cell %d has empty metrics: %+v", r.Index, r)
		}
		if r.Predicted && (r.Routability < 0 || r.Routability > 1) {
			t.Fatalf("predicted routability %v outside [0,1]", r.Routability)
		}
	}
	// The oracle frontier must be a subset of the oracle cells.
	if len(rep.FrontierOracle) == 0 {
		t.Fatal("no oracle frontier on a triaged run")
	}
	for _, i := range rep.FrontierOracle {
		if rep.Results[i].Predicted {
			t.Fatalf("predicted cell %d in the oracle frontier", i)
		}
	}
	// The checkpoint must record predicted cells as predicted.
	done, matched, err := loadCheckpoint(ck, store.Key(rep.Fingerprint))
	if err != nil || !matched {
		t.Fatalf("checkpoint reload: matched=%v err=%v", matched, err)
	}
	predicted := 0
	for _, r := range done {
		if r.Predicted {
			predicted++
		}
	}
	if predicted != rep.Predicted {
		t.Fatalf("checkpoint records %d predicted cells, report says %d", predicted, rep.Predicted)
	}
}

// TestTriageRerunOverFullCacheWritesNothing: a triaged grid rerun over
// the cache its first run filled re-derives the same training samples,
// and the store already holds them, so the rerun puts nothing.
func TestTriageRerunOverFullCacheWritesNothing(t *testing.T) {
	g := triageGrid()
	dir := t.TempDir()
	cold := mustRun(t, g, Options{Workers: 2, Triage: triageOpts(), CacheDir: dir})
	if cold.Triage == nil || cold.Triage.Fallback != "" || cold.Store.Puts == 0 {
		t.Fatalf("cold triaged run: triage %+v, store %+v", cold.Triage, cold.Store)
	}
	warm := mustRun(t, g, Options{Workers: 2, Triage: triageOpts(), CacheDir: dir})
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatal("rerun results differ from the first run")
	}
	if warm.Store.Misses != 0 || warm.Store.Puts != 0 {
		t.Fatalf("rerun over a full cache: %d misses, %d puts, want 0 and 0", warm.Store.Misses, warm.Store.Puts)
	}
}

func TestTriageResumeRefusesChangedFlags(t *testing.T) {
	g := triageGrid()
	ck := filepath.Join(t.TempDir(), "ck.json")
	mustRun(t, g, Options{Workers: 2, Triage: triageOpts(), Checkpoint: ck})

	changed := triageOpts()
	changed.Seed = 42
	_, err := Run(context.Background(), g, Options{Workers: 2, Triage: changed, Checkpoint: ck, Resume: true})
	if err == nil {
		t.Fatal("resume with changed triage flags accepted a stale checkpoint")
	}
	// Resume with the original flags over the finished checkpoint is fine
	// and recomputes nothing.
	rep, err := Run(context.Background(), g, Options{Workers: 2, Triage: triageOpts(), Checkpoint: ck, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(rep.Results) || rep.Computed != 0 {
		t.Fatalf("full resume recomputed cells: resumed=%d computed=%d", rep.Resumed, rep.Computed)
	}
}

func TestTriageFallbackRunsFullOracle(t *testing.T) {
	g := triageGrid()
	o := triageOpts()
	o.MinTrain = 10000
	rep := mustRun(t, g, Options{Workers: 2, Triage: o})
	if rep.Triage == nil || rep.Triage.Fallback == "" {
		t.Fatal("expected a triage fallback with an impossible MinTrain")
	}
	if rep.Predicted != 0 {
		t.Fatalf("fallback run still predicted %d cells", rep.Predicted)
	}
	full := mustRun(t, g, Options{Workers: 2})
	if !reflect.DeepEqual(stripPredicted(rep.Results), full.Results) {
		t.Fatal("fallback results differ from a plain full-oracle sweep")
	}
}

// stripPredicted clears the Predicted flag for comparison against a
// non-triaged run (a fallback run predicts nothing, so flags are the
// only legal difference — and there should be none).
func stripPredicted(rs []CellResult) []CellResult {
	out := append([]CellResult(nil), rs...)
	for i := range out {
		out[i].Predicted = false
	}
	return out
}

// TestTriageDeterminismAcrossWorkers is the predictor determinism gate:
// the nine-app corpus swept at -j 1 and -j 8 must produce byte-identical
// serialized models and identical cell results (hence rankings).
func TestTriageDeterminismAcrossWorkers(t *testing.T) {
	g := Grid{
		Apps:      apps.Names(), // all nine applications
		Supports:  []int{0},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1, 2, 3, 4},
		Ks:        []int{1},
		PnR:       true,
		Pipelined: true,
	}
	o := triageOpts()

	modelBytes := func(workers int) ([]byte, *Report) {
		dir := t.TempDir()
		rep := mustRun(t, g, Options{Workers: workers, Triage: o, CacheDir: dir})
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mk := store.ModelKey(store.Key(rep.Fingerprint), costmodel.FeatureSchemaVersion)
		payload, ok := st.Get(store.KindModel, mk)
		if !ok {
			t.Fatal("trained model not persisted under its ModelKey")
		}
		return payload, rep
	}

	m1, r1 := modelBytes(1)
	m8, r8 := modelBytes(8)
	if !bytes.Equal(m1, m8) {
		t.Fatal("serialized models differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(r1.Results, r8.Results) {
		t.Fatal("cell results differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(r1.Frontier, r8.Frontier) || !reflect.DeepEqual(r1.FrontierOracle, r8.FrontierOracle) {
		t.Fatal("frontiers differ between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(r1.Triage, r8.Triage) {
		t.Fatalf("triage summaries differ:\n%+v\nvs\n%+v", r1.Triage, r8.Triage)
	}
}

// TestTriageCancelResumeByteIdentical interrupts a triaged sweep partway
// and resumes it; the resumed report's results must serialize to exactly
// the bytes of an uninterrupted run.
func TestTriageCancelResumeByteIdentical(t *testing.T) {
	g := triageGrid()
	o := triageOpts()

	resultBytes := func(rep *Report) []byte {
		b, err := json.Marshal(struct {
			Results        []CellResult
			Frontier       []int
			FrontierOracle []int
		}{rep.Results, rep.Frontier, rep.FrontierOracle})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean := mustRun(t, g, Options{Workers: 1, Triage: o, CacheDir: t.TempDir()})

	dir := t.TempDir()
	ck := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := Run(ctx, g, Options{
		Workers: 1, Triage: o, CacheDir: dir, Checkpoint: ck, FlushEvery: 1,
		OnCell: func(done, total int, r CellResult) {
			if n++; n == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	resumed, err := Run(context.Background(), g, Options{
		Workers: 1, Triage: o, CacheDir: dir, Checkpoint: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed == 0 {
		t.Fatal("resume loaded nothing from the checkpoint")
	}
	if !bytes.Equal(resultBytes(clean), resultBytes(resumed)) {
		t.Fatal("resumed results are not byte-identical to an uninterrupted run")
	}
}
