//go:build gates

package sweep

import (
	"context"
	"testing"
	"time"
)

// TestGateTriageSpeedup is predictor-guided triage's gate, on a place-
// and-route grid swept once with the full oracle and once triaged, each
// on a cache pre-warmed by a post-mapping pass so both timings measure
// the PnR work triage prunes rather than the shared one-time mining.
// The triaged sweep must run at least 3x faster, and the hypervolume of
// its oracle-only frontier must be within 2% of the full frontier's:
// pruning may not cost real Pareto coverage. A timing ratio, so it is
// built only with the gates tag (`make gates`), never in the tier-1
// suite.
func TestGateTriageSpeedup(t *testing.T) {
	g := Grid{
		Apps:      []string{"camera", "harris"},
		Supports:  []int{0},
		Fabrics:   [][2]int{{32, 16}},
		Seeds:     []int64{1, 2, 3, 4, 5},
		Ks:        []int{1, 2, 3, 4, 5, 6, 7, 8},
		PnR:       true,
		Pipelined: true,
	}
	run := func(tr TriageOptions) (time.Duration, *Report) {
		dir := t.TempDir()
		warm := g
		warm.PnR = false
		if _, err := Run(context.Background(), warm, Options{Workers: 4, CacheDir: dir}); err != nil {
			t.Fatal(err)
		}
		// The timed runs are serial so the speedup is the pure work
		// ratio (cells pruned), not parallel scheduling noise.
		start := time.Now()
		rep, err := Run(context.Background(), g, Options{Workers: 1, Triage: tr, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if rep.Failed > 0 {
			t.Fatalf("%d cells failed", rep.Failed)
		}
		return elapsed, rep
	}
	fullDur, fullRep := run(TriageOptions{})
	triDur, triRep := run(TriageOptions{Enabled: true, Top: 0.1, Explore: 0.1, Seed: 1, MinTrain: 2})
	if triRep.Triage == nil || triRep.Triage.Fallback != "" {
		t.Fatalf("triaged run did not triage: %+v", triRep.Triage)
	}

	// Regret: the share of the full-oracle frontier's hypervolume the
	// triaged run's oracle cells lose, over the sweep's total across
	// apps. Per app, the union-of-rectangles hypervolume (minimizing area
	// and energy, reference point 1.1x the worst frontier corner).
	var hvFullSum, hvTriSum float64
	fullPts := FrontierPoints(fullRep.Results, fullRep.Frontier)
	triPts := FrontierPoints(triRep.Results, triRep.FrontierOracle)
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
	regretPct := 0.0
	if hvFullSum > 0 {
		regretPct = 100 * (hvFullSum - hvTriSum) / hvFullSum
	}

	speedup := float64(fullDur) / float64(triDur)
	t.Logf("full %v, triaged %v (%d oracle + %d predicted cells): %.2fx, regret %.2f%%",
		fullDur, triDur, triRep.Triage.OracleCells, triRep.Triage.PredictedCells, speedup, regretPct)
	if speedup < 3 {
		t.Errorf("triaged sweep speedup = %.2fx, want >= 3x", speedup)
	}
	if regretPct > 2 {
		t.Errorf("hypervolume regret = %.2f%%, want <= 2%%", regretPct)
	}
}
