package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRegistryRaceHammer pounds one registry from 32 goroutines: shared
// instruments take concurrent updates, per-goroutine instruments race on
// map creation. Totals must be exact (run under -race via `make
// obscheck`).
func TestRegistryRaceHammer(t *testing.T) {
	const goroutines, iters = 32, 500
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Add(1)
				r.Counter(fmt.Sprintf("per.%d", g)).Add(1)
				r.Gauge("peak").Max(int64(g*iters + i))
				r.Histogram("values").Observe(int64(i % 100))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter(fmt.Sprintf("per.%d", g)).Value(); got != iters {
			t.Errorf("per.%d = %d, want %d", g, got, iters)
		}
	}
	if got, want := r.Gauge("peak").Value(), int64((goroutines-1)*iters+iters-1); got != want {
		t.Errorf("peak gauge = %d, want %d", got, want)
	}
	h := r.Snapshot().Histograms[0]
	if h.Count != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*iters)
	}
	if h.Min != 0 || h.Max != 99 {
		t.Errorf("histogram min/max = %d/%d, want 0/99", h.Min, h.Max)
	}
}

// TestTracerRaceHammer ends spans into one tracer from 32 goroutines,
// each opening nested parent/child pairs.
func TestTracerRaceHammer(t *testing.T) {
	const goroutines, iters = 32, 200
	tr := NewTracer()
	root := tr.Context(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, parent := StartSpan(root, "work", Int("g", g))
				_, child := StartSpan(ctx, "step")
				child.End()
				parent.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.SpanCount(); got != goroutines*iters*2 {
		t.Errorf("span count = %d, want %d", got, goroutines*iters*2)
	}
}

// TestSpanTreeCanonicalAcrossInterleavings runs the same logical span
// set under two different goroutine interleavings; the canonical
// (sorted, time-free) rendering must come out byte-identical.
func TestSpanTreeCanonicalAcrossInterleavings(t *testing.T) {
	render := func(reverse bool) string {
		tr := NewTracer()
		root := tr.Context(context.Background())
		order := make([]int, 8)
		for i := range order {
			order[i] = i
			if reverse {
				order[i] = len(order) - 1 - i
			}
		}
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cell := StartSpan(root, "cell", Int("i", i))
				if i%2 == 0 {
					time.Sleep(time.Duration(i) * time.Millisecond)
				}
				_, inner := StartSpan(ctx, "inner", String("kind", fmt.Sprintf("k%d", i%3)))
				inner.End()
				cell.End()
			}(i)
		}
		wg.Wait()
		return tr.TreeString(false)
	}
	a, b := render(false), render(true)
	if a != b {
		t.Errorf("canonical trees differ:\n--- forward\n%s--- reverse\n%s", a, b)
	}
	if !strings.Contains(a, "cell{i=0}") || !strings.Contains(a, "inner{kind=k2}") {
		t.Errorf("canonical tree missing expected spans:\n%s", a)
	}
}

// TestDisabledPathAllocs proves the zero-allocation-off guarantee: with
// no tracer/registry in the context, span and metric calls never touch
// the heap.
func TestDisabledPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		sctx, span := StartSpan(ctx, "stage", Int("round", 3), String("app", "camera"))
		span.SetAttrs(Int("more", 1))
		span.End()
		_ = sctx
	}); n != 0 {
		t.Errorf("disabled StartSpan allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		Add(ctx, "counter", 1)
		Observe(ctx, "hist", 42)
		MaxGauge(ctx, "gauge", 7)
		ObserveSince(ctx, "since", time.Time{})
	}); n != 0 {
		t.Errorf("disabled metric helpers allocate %.1f times per call, want 0", n)
	}
}

// TestChromeTraceValid checks the trace_event export: valid JSON, a root
// event on tid 0 spanning the run, every span present, and overlapping
// top-level subtrees packed into distinct lanes.
func TestChromeTraceValid(t *testing.T) {
	tr := NewTracer()
	root := tr.Context(context.Background())
	ctx, outer := StartSpan(root, "evaluate", String("app", "camera"))
	_, inner := StartSpan(ctx, "place")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	_, other := StartSpan(root, "analyze")
	other.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4 (run + 3 spans)", len(out.TraceEvents))
	}
	byName := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
		byName[ev.Name] = ev.Tid
	}
	if tid, ok := byName["run"]; !ok || tid != 0 {
		t.Errorf("root event tid = %d (present=%v), want 0", tid, ok)
	}
	for _, name := range []string{"evaluate", "place", "analyze"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing event %q", name)
		}
	}
	if byName["place"] != byName["evaluate"] {
		t.Errorf("child span on lane %d, parent on %d — must share", byName["place"], byName["evaluate"])
	}
}

// TestLinkMetricsCountsSpans: ended spans bump span.<name> counters.
func TestLinkMetricsCountsSpans(t *testing.T) {
	tr := NewTracer()
	r := NewRegistry()
	tr.LinkMetrics(r)
	ctx := tr.Context(context.Background())
	for i := 0; i < 3; i++ {
		_, s := StartSpan(ctx, "merge")
		s.End()
	}
	if got := r.Counter("span.merge").Value(); got != 3 {
		t.Errorf("span.merge = %d, want 3", got)
	}
}

// TestStageCosts checks aggregation and ordering of the cost summary.
func TestStageCosts(t *testing.T) {
	tr := NewTracer()
	ctx := tr.Context(context.Background())
	for i := 0; i < 2; i++ {
		_, s := StartSpan(ctx, "route")
		time.Sleep(2 * time.Millisecond)
		s.End()
	}
	_, s := StartSpan(ctx, "map")
	s.End()
	costs := tr.StageCosts()
	if len(costs) != 2 {
		t.Fatalf("got %d stages, want 2", len(costs))
	}
	if costs[0].Name != "route" || costs[0].Count != 2 {
		t.Errorf("top stage = %s x%d, want route x2", costs[0].Name, costs[0].Count)
	}
	var b strings.Builder
	tr.WriteStageSummary(&b)
	if !strings.Contains(b.String(), "route") || !strings.Contains(b.String(), "map") {
		t.Errorf("summary missing stages:\n%s", b.String())
	}
}

// TestLoggerLevels: Warn always passes, Info needs -v, Debug needs -vv;
// the json format emits parseable records.
func TestLoggerLevels(t *testing.T) {
	for _, tc := range []struct {
		verbosity                  int
		wantInfo, wantDebug, wantW bool
	}{
		{0, false, false, true},
		{1, true, false, true},
		{2, true, true, true},
	} {
		var buf bytes.Buffer
		l := NewLogger(&buf, tc.verbosity, "text")
		l.Debug("dbg")
		l.Info("inf")
		l.Warn("wrn")
		out := buf.String()
		if got := strings.Contains(out, "inf"); got != tc.wantInfo {
			t.Errorf("verbosity %d: info logged = %v, want %v", tc.verbosity, got, tc.wantInfo)
		}
		if got := strings.Contains(out, "dbg"); got != tc.wantDebug {
			t.Errorf("verbosity %d: debug logged = %v, want %v", tc.verbosity, got, tc.wantDebug)
		}
		if got := strings.Contains(out, "wrn"); got != tc.wantW {
			t.Errorf("verbosity %d: warn logged = %v, want %v", tc.verbosity, got, tc.wantW)
		}
	}
	var buf bytes.Buffer
	NewLogger(&buf, 0, "json").Warn("structured", "cell", "camera|pe1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log record invalid: %v", err)
	}
	if rec["cell"] != "camera|pe1" {
		t.Errorf("json record attr = %v, want camera|pe1", rec["cell"])
	}
}

// TestNilSafety: the whole API must be inert on nil receivers and bare
// contexts — that is the disabled path library code runs on.
func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	var o *Obs
	if got := o.Context(ctx); got != ctx {
		t.Error("nil Obs.Context must return ctx unchanged")
	}
	sctx, span := StartSpan(ctx, "x", Int("a", 1))
	if span != nil || sctx != ctx {
		t.Error("StartSpan without tracer must return (ctx, nil)")
	}
	span.End()
	span.SetAttrs(Int("b", 2))
	if Logger(ctx) == nil {
		t.Error("Logger must never return nil")
	}
	Logger(ctx).Warn("discarded")
	var p *Progress
	p.Add(1)
	p.Done(1)
	p.Stop()
	if Metrics(ctx) != nil {
		t.Error("Metrics on a bare ctx must be nil")
	}
}

// TestProgressReporter: lines appear while counts change, never after
// Stop, and include done/total/eta.
func TestProgressReporter(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := StartProgress(w, 5*time.Millisecond)
	p.Add(10)
	p.Done(3)
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: 3/10 cells") {
		t.Errorf("progress output missing counts: %q", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("progress output missing eta: %q", out)
	}
	// No change after the first line: no repeated identical lines.
	if n := strings.Count(out, "progress: 3/10 cells"); n != 1 {
		t.Errorf("identical progress line printed %d times, want 1", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestObsContextRoundTrip: a full bundle installs all three facilities.
func TestObsContextRoundTrip(t *testing.T) {
	o := &Obs{Tracer: NewTracer(), Metrics: NewRegistry(), Logger: NewLogger(&bytes.Buffer{}, 2, "text")}
	o.Tracer.LinkMetrics(o.Metrics)
	ctx := o.Context(context.Background())
	if Metrics(ctx) != o.Metrics {
		t.Error("registry not carried by ctx")
	}
	if Logger(ctx) != o.Logger {
		t.Error("logger not carried by ctx")
	}
	_, s := StartSpan(ctx, "stage")
	if s == nil {
		t.Fatal("span not started from bundle ctx")
	}
	s.End()
	Add(ctx, "c", 2)
	if got := o.Metrics.Counter("c").Value(); got != 2 {
		t.Errorf("ctx Add = %d, want 2", got)
	}
	if got := o.Metrics.Counter("span.stage").Value(); got != 1 {
		t.Errorf("span.stage = %d, want 1", got)
	}
}
