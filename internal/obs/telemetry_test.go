package obs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHistogramQuantiles checks the bucket-interpolated estimates on
// distributions whose exact quantiles are computable by hand.
func TestHistogramQuantiles(t *testing.T) {
	t.Run("uniform 1..100", func(t *testing.T) {
		r := NewRegistry()
		h := r.Histogram("lat")
		for v := int64(1); v <= 100; v++ {
			h.Observe(v)
		}
		hs := r.Snapshot().Histograms[0]
		// rank 50 lands in the (32,64] bucket at exactly its midpoint.
		if hs.P50 != 50 {
			t.Errorf("p50 = %d, want 50", hs.P50)
		}
		// Ranks 95 and 99 land in (64,128]; the interpolated estimates
		// overshoot the observed data and must clamp to max.
		if hs.P95 != 100 || hs.P99 != 100 {
			t.Errorf("p95/p99 = %d/%d, want 100/100 (clamped to max)", hs.P95, hs.P99)
		}
	})
	t.Run("single value clamps to min", func(t *testing.T) {
		r := NewRegistry()
		for i := 0; i < 5; i++ {
			r.Histogram("lat").Observe(7)
		}
		hs := r.Snapshot().Histograms[0]
		if hs.P50 != 7 || hs.P95 != 7 || hs.P99 != 7 {
			t.Errorf("quantiles = %d/%d/%d, want 7/7/7", hs.P50, hs.P95, hs.P99)
		}
	})
	t.Run("overflow bucket uses observed max", func(t *testing.T) {
		r := NewRegistry()
		r.Histogram("lat").Observe(1)
		r.Histogram("lat").Observe(100000) // past the largest finite bound
		hs := r.Snapshot().Histograms[0]
		if hs.P99 != 100000 {
			t.Errorf("p99 = %d, want 100000 (overflow bucket upper bound = max)", hs.P99)
		}
		if hs.P50 != 1 {
			t.Errorf("p50 = %d, want 1", hs.P50)
		}
	})
	t.Run("empty histogram reports zero", func(t *testing.T) {
		r := NewRegistry()
		r.Histogram("lat")
		hs := r.Snapshot().Histograms[0]
		if hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
			t.Errorf("quantiles on empty histogram = %d/%d/%d, want zeros", hs.P50, hs.P95, hs.P99)
		}
	})
}

// TestChildRegistryMirrors: updates through a child registry land in
// both the child (the delta scope) and its parent (the global totals).
func TestChildRegistryMirrors(t *testing.T) {
	parent := NewRegistry()
	parent.Counter("jobs").Add(10) // pre-existing global total
	child := NewChildRegistry(parent)

	child.Counter("jobs").Add(3)
	if got := child.Counter("jobs").Value(); got != 3 {
		t.Errorf("child counter = %d, want 3 (delta only)", got)
	}
	if got := parent.Counter("jobs").Value(); got != 13 {
		t.Errorf("parent counter = %d, want 13 (total)", got)
	}

	child.Gauge("depth").Set(5)
	child.Gauge("depth").Add(2)
	child.Gauge("peak").Max(9)
	if got := parent.Gauge("depth").Value(); got != 7 {
		t.Errorf("parent gauge = %d, want 7", got)
	}
	if got := parent.Gauge("peak").Value(); got != 9 {
		t.Errorf("parent max gauge = %d, want 9", got)
	}

	child.Histogram("lat").Observe(42)
	ps := parent.Snapshot()
	var found bool
	for _, h := range ps.Histograms {
		if h.Name == "lat" && h.Count == 1 && h.Sum == 42 {
			found = true
		}
	}
	if !found {
		t.Errorf("parent histogram missing mirrored observation: %+v", ps.Histograms)
	}

	// Parent-side updates must NOT leak into the child.
	parent.Counter("jobs").Add(100)
	if got := child.Counter("jobs").Value(); got != 3 {
		t.Errorf("child counter after parent add = %d, want 3", got)
	}
}

// TestReattachReRootsSpan: Reattach keeps the ctx-carried facilities but
// re-roots the span at its tracer's root, so trees do not depend on
// which span happened to be open at the call site.
func TestReattachReRootsSpan(t *testing.T) {
	o := &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
	ctx := o.Context(context.Background())
	inner, s := StartSpan(ctx, "caller")

	re := o.Reattach(inner)
	_, child := StartSpan(re, "work")
	child.End()
	s.End()

	tree := o.Tracer.TreeString(false)
	// "work" must be a direct child of the root (same depth as
	// "caller"), not nested under the span open at the Reattach site.
	if !strings.Contains(tree, "\n  work") || strings.Contains(tree, "    work") {
		t.Errorf("work span not re-rooted as a root child:\n%s", tree)
	}
	if Metrics(re) != o.Metrics {
		t.Error("Reattach dropped the registry")
	}
}

// TestReattachFallsBackToBundle: a bare context gains the harness
// bundle's facilities.
func TestReattachFallsBackToBundle(t *testing.T) {
	o := &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
	ctx := o.Reattach(context.Background())
	if Metrics(ctx) != o.Metrics {
		t.Error("Reattach on bare ctx must install the bundle registry")
	}
	_, s := StartSpan(ctx, "stage")
	if s == nil {
		t.Fatal("Reattach on bare ctx must install the bundle tracer")
	}
	s.End()

	// A ctx that already carries a different bundle keeps it.
	per := &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
	kept := o.Reattach(per.Context(context.Background()))
	if Metrics(kept) != per.Metrics {
		t.Error("Reattach must not replace a ctx-carried registry")
	}
	_, s2 := StartSpan(kept, "x")
	s2.End()
	if per.Tracer.SpanCount() != 1 || o.Tracer.SpanCount() != 1 {
		t.Errorf("span counts per=%d o=%d, want 1/1 (ctx tracer kept)",
			per.Tracer.SpanCount(), o.Tracer.SpanCount())
	}
}

// TestFromContext rebuilds a bundle from context values.
func TestFromContext(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Errorf("FromContext on bare ctx = %+v, want nil", got)
	}
	o := &Obs{Tracer: NewTracer(), Metrics: NewRegistry()}
	got := FromContext(o.Context(context.Background()))
	if got == nil || got.Tracer != o.Tracer || got.Metrics != o.Metrics {
		t.Errorf("FromContext = %+v, want the installed bundle", got)
	}
}

// TestPrometheusGolden locks the text exposition format (v0.0.4):
// family grouping and ordering, label rendering, cumulative histogram
// buckets, and name sanitization.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("memo.results.lookups").Add(42)
	r.Counter("pnr.attempts").Add(5)
	r.Counter(`serve.jobs.done{client=al"ice}`).Add(3)
	r.Counter("serve.jobs.done{client=bob}").Add(7)
	r.Gauge("sched.workers").Set(8)
	r.Gauge("serve.queue.depth{client=bob}").Set(2)
	for _, v := range []int64{1, 3, 3, 40, 100000} {
		r.Histogram("route.iterations").Observe(v)
	}

	var b bytes.Buffer
	WritePrometheus(&b, r.Snapshot())
	got := b.String()

	path := filepath.Join("testdata", "prom_text.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("prometheus exposition changed:\n--- got\n%s--- want\n%s", got, want)
	}

	// Spot invariants a format reader depends on, independent of the
	// golden bytes.
	for _, s := range []string{
		"# TYPE memo_results_lookups counter",
		"# TYPE sched_workers gauge",
		"# TYPE route_iterations histogram",
		`serve_jobs_done{client="al\"ice"} 3`,
		`route_iterations_bucket{le="+Inf"} 5`,
		"route_iterations_sum 100047",
		"route_iterations_count 5",
	} {
		if !strings.Contains(got, s) {
			t.Errorf("exposition missing %q:\n%s", s, got)
		}
	}
}

// TestPrometheusCumulativeBuckets: bucket counts must be cumulative
// (each le includes everything below), unlike the registry's raw
// per-bucket counts.
func TestPrometheusCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 2, 3, 4} {
		r.Histogram("h").Observe(v)
	}
	var b bytes.Buffer
	WritePrometheus(&b, r.Snapshot())
	got := b.String()
	for _, s := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="4"} 4`,
		`h_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(got, s) {
			t.Errorf("missing cumulative bucket %q:\n%s", s, got)
		}
	}
}

// TestWriteProcessMetrics: the process families render with valid
// names and sane values.
func TestWriteProcessMetrics(t *testing.T) {
	var b bytes.Buffer
	WriteProcessMetrics(&b, time.Now().Add(-time.Second))
	got := b.String()
	for _, fam := range []string{
		"go_goroutines", "go_mem_heap_alloc_bytes", "go_gc_runs_total",
		"process_uptime_seconds",
	} {
		if !strings.Contains(got, "# TYPE "+fam+" ") {
			t.Errorf("process metrics missing family %s:\n%s", fam, got)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}
