//go:build gates

package eval

import (
	"context"
	"testing"
	"time"
)

// TestGateWarmSuiteSpeedup is the persistent store's gate: the fast
// suite over a warm store (every analysis, variant and result decoded
// from disk) must run at least 5x faster than the cold run that filled
// it, taking the best of three warm runs. TestPersistWarmSuiteByteIdentical
// pins the warm output itself. A timing ratio, so it is built only with
// the gates tag (`make gates`), never in the tier-1 suite.
func TestGateWarmSuiteSpeedup(t *testing.T) {
	dir := t.TempDir()
	timeSuite := func() time.Duration {
		h := storedHarness(t, dir)
		start := time.Now()
		if _, err := h.Suite(context.Background(), false); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	cold := timeSuite()
	warm := timeSuite()
	for i := 0; i < 2; i++ {
		warm = min(warm, timeSuite())
	}
	speedup := float64(cold) / float64(warm)
	t.Logf("cold %v, warm %v: %.2fx", cold, warm, speedup)
	if speedup < 5 {
		t.Errorf("warm-store suite speedup = %.2fx, want >= 5x", speedup)
	}
}
