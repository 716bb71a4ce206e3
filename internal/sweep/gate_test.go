//go:build gates

package sweep

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestGateTriageSpeedup is predictor-guided triage's gate, on a place-
// and-route grid swept with the full oracle and triaged, each run on
// its own cache pre-warmed by a post-mapping pass so every timing
// measures the PnR work triage prunes rather than the shared one-time
// mining. Each side is timed as the median of five runs, the two sides
// alternating, so one slow run or a burst of machine load cannot decide
// the ratio. The triaged sweep must run at least 3x faster, and the
// hypervolume of its oracle-only frontier must be within 2% of the full
// frontier's: pruning may not cost real Pareto coverage. A timing
// ratio, so it is built only with the gates tag (`make gates`), never
// in the tier-1 suite; TestTriageRegretWithinBound holds the regret
// bound there.
func TestGateTriageSpeedup(t *testing.T) {
	g := gateGrid()
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
	const runs = 5
	var fullDurs, triDurs []time.Duration
	var fullRep, triRep *Report
	for i := 0; i < runs; i++ {
		var d time.Duration
		d, fullRep = run(TriageOptions{})
		fullDurs = append(fullDurs, d)
		d, triRep = run(gateTriage())
		triDurs = append(triDurs, d)
	}
	if triRep.Triage == nil || triRep.Triage.Fallback != "" {
		t.Fatalf("triaged run did not triage: %+v", triRep.Triage)
	}
	t.Logf("full runs %v; triaged runs %v", fullDurs, triDurs)
	fullDur, triDur := median(fullDurs), median(triDurs)

	regret := regretPct(fullRep, triRep)

	speedup := float64(fullDur) / float64(triDur)
	t.Logf("median of %d: full %v, triaged %v (%d oracle + %d predicted cells): %.2fx, regret %.2f%%",
		runs, fullDur, triDur, triRep.Triage.OracleCells, triRep.Triage.PredictedCells, speedup, regret)
	if speedup < 3 {
		t.Errorf("triaged sweep speedup = %.2fx, want >= 3x", speedup)
	}
	if regret > 2 {
		t.Errorf("hypervolume regret = %.2f%%, want <= 2%%", regret)
	}
}

// median returns the middle of an odd number of durations.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
