package eval

import (
	"context"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
)

// obsSuiteRun executes the suite (fast, or with full place-and-route) on
// a cold harness with the given worker count and full observability
// enabled, returning the harness, the canonical span tree and the
// registry dump with the scheduling-dependent sched.* instruments
// filtered out (queue wait, run time, and peak concurrency legitimately
// vary with the worker count; everything else must not).
func obsSuiteRun(t *testing.T, workers int, pnr bool) (h *Harness, tree, metrics string) {
	t.Helper()
	o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	o.Tracer.LinkMetrics(o.Metrics)
	h = NewHarness()
	h.FastMode = !pnr
	h.Workers = workers
	h.SetObs(o)
	ctx := o.Context(context.Background())
	if _, err := h.Suite(ctx, pnr); err != nil {
		t.Fatal(err)
	}
	var kept []string
	skipping := false
	for _, line := range strings.Split(o.Metrics.String(), "\n") {
		if strings.HasPrefix(line, "  ") { // histogram bucket of the last header
			if skipping {
				continue
			}
		} else {
			skipping = strings.Contains(line, " sched.")
			if skipping {
				continue
			}
		}
		kept = append(kept, line)
	}
	return h, o.Tracer.TreeString(false), strings.Join(kept, "\n")
}

// TestObsDeterminismAcrossWorkers is the observability analogue of the
// byte-identical-tables guarantee: with tracing and metrics on, the
// canonical span tree and every worker-count-invariant metric must be
// identical between a serial and an 8-worker run of the same suite.
func TestObsDeterminismAcrossWorkers(t *testing.T) {
	_, tree1, metrics1 := obsSuiteRun(t, 1, false)
	_, tree8, metrics8 := obsSuiteRun(t, 8, false)
	if tree1 != tree8 {
		t.Errorf("span trees differ between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", tree1, tree8)
	}
	if metrics1 != metrics8 {
		t.Errorf("metrics differ between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", metrics1, metrics8)
	}
	for _, want := range []string{"counter memo.results.lookups", "counter span.evaluate", "counter span.mine.pass", "counter span.suite"} {
		if !strings.Contains(metrics1, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, metrics1)
		}
	}
	for _, want := range []string{"suite", "evaluate{", "mine.seed", "mis.analyze"} {
		if !strings.Contains(tree1, want) {
			t.Errorf("span tree missing %q", want)
		}
	}
}

// TestObsOffTablesByteIdentical re-checks the zero-cost claim from the
// other side: tables from an instrumented-but-disabled run must match an
// observability-enabled run byte for byte — instrumentation can never
// leak into results.
func TestObsOffTablesByteIdentical(t *testing.T) {
	render := func(o *obs.Obs) string {
		h := NewHarness()
		h.FastMode = true
		h.Workers = 4
		ctx := context.Background()
		if o != nil {
			h.SetObs(o)
			ctx = o.Context(ctx)
		}
		tables, err := h.Suite(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tables {
			b.WriteString(tab.Markdown())
		}
		return b.String()
	}
	off := render(nil)
	o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	o.Tracer.LinkMetrics(o.Metrics)
	on := render(o)
	if off != on {
		t.Error("tables differ between observability off and on")
	}
	if o.Tracer.SpanCount() == 0 {
		t.Error("enabled run recorded no spans")
	}
}

// TestMemoStatsSurfaced: the harness exposes per-table cache statistics
// and the report carries them (the apex-eval summary reads them there).
func TestMemoStatsSurfaced(t *testing.T) {
	h := fastHarness()
	app := apps.Camera()
	v, err := h.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.Evaluate(context.Background(), app, v, false, true); err != nil {
			t.Fatal(err)
		}
	}
	stats := h.MemoStats()
	rs := stats["results"]
	if rs.Misses != 1 {
		t.Errorf("results misses = %d, want 1", rs.Misses)
	}
	if rs.Lookups() != 3 {
		t.Errorf("results lookups = %d, want 3", rs.Lookups())
	}
	if rs.Hits+rs.Coalesced != 2 {
		t.Errorf("hits+coalesced = %d, want 2", rs.Hits+rs.Coalesced)
	}
	h.Report.SetMemoStats(stats)
	if got := h.Report.MemoStats()["results"]; got != rs {
		t.Errorf("report memo stats = %+v, want %+v", got, rs)
	}
}
