package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

// obsSuite runs the fast suite on a cold harness, with observability
// enabled when o is non-nil, and returns the wall-clock time.
func obsSuite(tb testing.TB, o *obs.Obs, workers int) time.Duration {
	tb.Helper()
	h := eval.NewHarness()
	h.FastMode = true
	h.Workers = workers
	ctx := context.Background()
	if o != nil {
		h.SetObs(o)
		ctx = o.Context(ctx)
	}
	start := time.Now()
	if _, err := h.Suite(ctx, false); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

func newObs() *obs.Obs {
	o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	o.Tracer.LinkMetrics(o.Metrics)
	return o
}

// BenchmarkFullEvalObsOff is the disabled path: instrumented code, no
// tracer/registry in the context. Compare against BenchmarkFullEvalObsOn
// to see what full tracing+metrics costs.
func BenchmarkFullEvalObsOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obsSuite(b, nil, 1)
	}
}

// BenchmarkFullEvalObsOn runs the same suite with span collection and
// the metrics registry live.
func BenchmarkFullEvalObsOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		obsSuite(b, newObs(), 1)
	}
}

// TestObsDisabledOverheadUnderTwoPercent enforces the observability
// layer's overhead budget without comparing two noisy wall-clock runs:
// it counts how many instrumentation events one FullEval actually fires
// (spans, counter bumps, histogram observations — measured on an enabled
// run), micro-measures the disabled path's per-call cost, and requires
// the product to stay under 2% of the measured FullEval wall time. The
// margin is orders of magnitude: a disabled call is a few nanoseconds
// and a fast FullEval is seconds.
func TestObsDisabledOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fast suite")
	}
	o := newObs()
	wall := obsSuite(t, o, 1)

	// Every instrumentation site the run fired: one StartSpan+End pair
	// per ended span, one registry op per counter unit and histogram
	// observation. Counter values over-count (mine.patterns adds in
	// batches) which only makes the bound more conservative.
	snap := o.Metrics.Snapshot()
	events := int64(o.Tracer.SpanCount()) * 2
	for _, c := range snap.Counters {
		events += c.Value
	}
	for _, h := range snap.Histograms {
		events += h.Count
	}
	if events == 0 {
		t.Fatal("enabled run recorded no instrumentation events")
	}

	// Disabled-path cost per call, measured on a bare context. The loop
	// covers every per-event telemetry surface a disabled run touches:
	// spans, counters, and rebuilding a bundle from a bare ctx (what
	// execSweep does per job).
	ctx := context.Background()
	const iters = 200000
	start := time.Now()
	for i := 0; i < iters; i++ {
		sctx, span := obs.StartSpan(ctx, "stage", obs.Int("i", i))
		span.End()
		_ = sctx
		obs.Add(ctx, "counter", 1)
		_ = obs.FromContext(ctx)
	}
	perCall := time.Since(start) / (iters * 3) // three instrumentation ops per iteration

	overhead := time.Duration(events) * perCall
	budget := wall / 50 // 2%
	t.Logf("events=%d perCall=%s estimated overhead=%s budget(2%% of %s)=%s",
		events, perCall, overhead, wall, budget)
	if overhead >= budget {
		t.Errorf("estimated disabled-path overhead %s exceeds 2%% budget %s (FullEval %s, %d events)",
			overhead, budget, wall, events)
	}
}
