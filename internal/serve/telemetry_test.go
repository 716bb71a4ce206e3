package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func telemetryObs() *obs.Obs {
	return &obs.Obs{Metrics: obs.NewRegistry()}
}

// sseClient subscribes to /api/v1/events and collects decoded events in
// the background until the stream ends or stop is called.
type sseClient struct {
	mu     sync.Mutex
	events []Event
	cancel context.CancelFunc
	done   chan struct{}
}

// openSSE connects and blocks until the server acknowledges the
// subscription (the retry preamble), so events published after it
// returns are guaranteed to reach the subscriber.
func openSSE(t *testing.T, url string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("open SSE: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{})}
	br := bufio.NewReader(resp.Body)
	// The preamble line arrives before the subscription returns to the
	// caller? No — subscribe happens before the preamble is written, so
	// reading it proves the subscription is registered.
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "retry:") {
		t.Fatalf("SSE preamble = %q, %v", line, err)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		var data string
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && data != "":
				var ev Event
				if json.Unmarshal([]byte(data), &ev) == nil {
					c.mu.Lock()
					c.events = append(c.events, ev)
					c.mu.Unlock()
				}
				data = ""
			}
		}
	}()
	return c
}

func (c *sseClient) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// waitEvents polls until pred is satisfied by the collected events.
func (c *sseClient) waitEvents(t *testing.T, timeout time.Duration, pred func([]Event) bool) []Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		evs := c.snapshot()
		if pred(evs) {
			return evs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("events condition not met after %v; have %+v", timeout, c.snapshot())
	return nil
}

func (c *sseClient) close() {
	c.cancel()
	<-c.done
}

// jobStates extracts the state sequence of one job's events, in arrival
// order.
func jobStates(evs []Event, id string) []State {
	var out []State
	for _, ev := range evs {
		if ev.Type == "job" && ev.Job != nil && ev.Job.ID == id {
			out = append(out, ev.Job.State)
		}
	}
	return out
}

// TestEventStreamJobLifecycle: an SSE subscriber sees one job's
// transitions in order — queued, running, done — with monotonically
// increasing sequence numbers. Run under -race via `make servecheck`.
func TestEventStreamJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: telemetryObs()})
	c := openSSE(t, ts.URL+"/api/v1/events")
	defer c.close()
	srv.Start()

	j := decodeJob(t, submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"}))
	waitTerminal(t, srv, j.ID, 30*time.Second)
	evs := c.waitEvents(t, 10*time.Second, func(evs []Event) bool {
		states := jobStates(evs, j.ID)
		return len(states) > 0 && states[len(states)-1] == StateDone
	})

	states := jobStates(evs, j.ID)
	want := []State{StateQueued, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("job states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("job states = %v, want %v", states, want)
		}
	}
	var lastSeq int64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence numbers not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	done := evs[len(evs)-1]
	for _, ev := range evs {
		if ev.Type == "job" && ev.Job.ID == j.ID && ev.Job.State == StateDone {
			done = ev
		}
	}
	if done.Job.Kind != KindAnalyze || done.Job.Client != "alice" || done.Job.Attempt != 1 {
		t.Errorf("terminal event fields = %+v", done.Job)
	}
}

// TestEventStreamSweepProgress: a sweep job's cell completions stream
// as typed sweep events, done reaches total, and the type filter works.
func TestEventStreamSweepProgress(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: telemetryObs()})
	c := openSSE(t, ts.URL+"/api/v1/events?types=sweep")
	defer c.close()
	srv.Start()

	grid := &sweep.Grid{Apps: []string{"gaussian"}, Ks: []int{0, 1}}
	j := decodeJob(t, submitJob(t, ts, "alice", KindSweep, Params{Grid: grid}))
	waitTerminal(t, srv, j.ID, 60*time.Second)

	evs := c.waitEvents(t, 10*time.Second, func(evs []Event) bool {
		for _, ev := range evs {
			if ev.Type == "sweep" && ev.Sweep.Done == ev.Sweep.Total && ev.Sweep.Total > 0 {
				return true
			}
		}
		return false
	})
	cells := map[int]bool{}
	for _, ev := range evs {
		if ev.Type != "sweep" {
			t.Fatalf("types=sweep filter leaked a %q event: %+v", ev.Type, ev)
		}
		if ev.Sweep.JobID != j.ID || ev.Sweep.Total != 2 || ev.Sweep.Err != "" {
			t.Fatalf("bad sweep event %+v", ev.Sweep)
		}
		cells[ev.Sweep.Cell] = true
	}
	if len(cells) != 2 {
		t.Fatalf("saw cells %v, want both of 2", cells)
	}
}

// TestEventBusSlowConsumerDrops: a full subscriber buffer drops events
// (counted per-sub and per-bus) instead of blocking the publisher.
func TestEventBusSlowConsumerDrops(t *testing.T) {
	var counted int64
	bus := newEventBus(func(n int64) { counted += n })
	slow := bus.subscribe(nil, 2)
	fast := bus.subscribe(nil, 64)
	defer bus.closeAll()

	for i := 0; i < 10; i++ {
		bus.publish(Event{Type: "job", Job: &JobEvent{ID: "j"}})
	}
	if got := slow.dropped.Load(); got != 8 {
		t.Errorf("slow sub dropped %d, want 8", got)
	}
	if got := fast.dropped.Load(); got != 0 {
		t.Errorf("fast sub dropped %d, want 0", got)
	}
	st := bus.stats()
	if st.Published != 10 || st.Dropped != 8 || st.Subscribers != 2 {
		t.Errorf("bus stats = %+v, want published=10 dropped=8 subs=2", st)
	}
	if counted != 8 {
		t.Errorf("onDrop counted %d, want 8", counted)
	}
	// The slow consumer still got the first events, in order.
	if ev := <-slow.ch; ev.Seq != 1 {
		t.Errorf("first delivered seq = %d, want 1", ev.Seq)
	}
}

// TestJournalReplayTerminalEventsExactlyOnce: a resumed pending job
// re-runs and emits its terminal event exactly once; a journal-loaded
// already-terminal job emits nothing at all on the next incarnation.
func TestJournalReplayTerminalEventsExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	jp := filepath.Join(dir, "journal.json")

	// Incarnation A: accept but never run (workers not started); Close
	// journals the job as pending.
	srvA, tsA := newTestServer(t, Config{Workers: 1, JournalPath: jp, Obs: telemetryObs()})
	j := decodeJob(t, submitJob(t, tsA, "alice", KindAnalyze, Params{App: "gaussian"}))
	tsA.Close()
	srvA.Close()

	// Incarnation B resumes the pending job; a subscriber attached before
	// Start sees running+done exactly once (the queued transition happened
	// in a prior life).
	srvB, tsB := newTestServer(t, Config{Workers: 1, JournalPath: jp, Obs: telemetryObs()})
	cB := openSSE(t, tsB.URL+"/api/v1/events")
	srvB.Start()
	waitTerminal(t, srvB, j.ID, 30*time.Second)
	evs := cB.waitEvents(t, 10*time.Second, func(evs []Event) bool {
		s := jobStates(evs, j.ID)
		return len(s) > 0 && s[len(s)-1] == StateDone
	})
	terminal := 0
	for _, s := range jobStates(evs, j.ID) {
		if s == StateDone || s == StateFailed || s == StateCanceled {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("resumed job emitted %d terminal events, want exactly 1: %v", terminal, jobStates(evs, j.ID))
	}
	cB.close()
	tsB.Close()
	srvB.Close()

	// Incarnation C loads the job already terminal: no events for it.
	srvC, tsC := newTestServer(t, Config{Workers: 1, JournalPath: jp, Obs: telemetryObs()})
	cC := openSSE(t, tsC.URL+"/api/v1/events")
	defer cC.close()
	srvC.Start()
	if jc, ok := srvC.JobSnapshot(j.ID); !ok || jc.State != StateDone {
		t.Fatalf("incarnation C did not load the terminal job: %+v", jc)
	}
	time.Sleep(100 * time.Millisecond)
	if got := jobStates(cC.snapshot(), j.ID); len(got) != 0 {
		t.Fatalf("terminal job re-emitted events on replay: %v", got)
	}
}

// TestResumedTraceByteIdentical: the canonical trace tree of a job that
// was journaled pending and re-run by a fresh daemon is byte-identical
// to the tree the original daemon produced — traces depend on the work,
// not the incarnation (the trace-endpoint analogue of the journal's
// byte-identical-results contract).
func TestResumedTraceByteIdentical(t *testing.T) {
	dir := t.TempDir()
	j1 := filepath.Join(dir, "j1.json")
	j2 := filepath.Join(dir, "j2.json")

	srvA, tsA := newTestServer(t, Config{Workers: 1, JournalPath: j1, Obs: telemetryObs()})
	j := decodeJob(t, submitJob(t, tsA, "alice", KindEvaluate, Params{App: "gaussian", K: 1}))

	// Snapshot the journal while the job is still pending, then let A run
	// it: two daemons now each run the identical pending job from cold.
	raw, err := os.ReadFile(j1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j2, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srvA.Start()
	waitTerminal(t, srvA, j.ID, 60*time.Second)
	treeA := getTrace(t, tsA, j.ID, "")

	srvB, tsB := newTestServer(t, Config{Workers: 1, JournalPath: j2, Obs: telemetryObs()})
	srvB.Start()
	waitTerminal(t, srvB, j.ID, 60*time.Second)
	treeB := getTrace(t, tsB, j.ID, "")

	if treeA != treeB {
		t.Fatalf("resumed trace differs from original:\n--- original\n%s--- resumed\n%s", treeA, treeB)
	}
	if !strings.Contains(treeA, "job{id="+j.ID) {
		t.Fatalf("trace missing the job span:\n%s", treeA)
	}
}

func getTrace(t *testing.T, ts *httptest.Server, id, format string) string {
	t.Helper()
	url := ts.URL + "/api/v1/jobs/" + id + "/trace"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace (%s) = %d: %s", format, resp.StatusCode, body)
	}
	return string(body)
}

// TestTraceEndpointFormats: tree/chrome/json formats, the metrics delta
// scope, and the error paths.
func TestTraceEndpointFormats(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: telemetryObs()})
	srv.Start()
	j := decodeJob(t, submitJob(t, ts, "alice", KindEvaluate, Params{App: "gaussian", K: 0}))
	waitTerminal(t, srv, j.ID, 60*time.Second)

	tree := getTrace(t, ts, j.ID, "tree")
	if !strings.HasPrefix(tree, "run\n") || !strings.Contains(tree, "job{") {
		t.Errorf("tree format unexpected:\n%s", tree)
	}

	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(getTrace(t, ts, j.ID, "chrome")), &chrome); err != nil {
		t.Fatalf("chrome format is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) < 2 {
		t.Errorf("chrome trace has %d events, want at least run+job", len(chrome.TraceEvents))
	}

	var rec TraceRecord
	if err := json.Unmarshal([]byte(getTrace(t, ts, j.ID, "json")), &rec); err != nil {
		t.Fatalf("json format: %v", err)
	}
	if rec.JobID != j.ID || rec.Kind != KindEvaluate || rec.Attempt != 1 || rec.Spans < 2 {
		t.Errorf("trace record = %+v", rec)
	}
	// The metrics delta must be job-scoped: exactly one job span here.
	var jobSpans int64
	for _, c := range rec.Metrics.Counters {
		if c.Name == "span.job" {
			jobSpans = c.Value
		}
	}
	if jobSpans != 1 {
		t.Errorf("job-scoped span.job = %d, want 1 (delta registry leaked?)", jobSpans)
	}

	for path, want := range map[string]int{
		"/api/v1/jobs/" + j.ID + "/trace?format=bogus": http.StatusBadRequest,
		"/api/v1/jobs/nosuch/trace":                    http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestTraceRingEviction: the ring drops oldest past its record bound
// and the stats surface the eviction.
func TestTraceRingEviction(t *testing.T) {
	tr := newTraceRing(2, 1<<20)
	for _, id := range []string{"a", "b", "c"} {
		tr.add(&TraceRecord{JobID: id, Tree: "run\n"})
	}
	if _, ok := tr.get("a"); ok {
		t.Error("oldest record survived past the bound")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := tr.get(id); !ok {
			t.Errorf("record %s missing", id)
		}
	}
	st := tr.stats()
	if st.Retained != 2 || st.Evicted != 1 {
		t.Errorf("ring stats = %+v, want retained=2 evicted=1", st)
	}

	// Byte bound: a tiny budget keeps only the newest record.
	tb := newTraceRing(100, 300)
	tb.add(&TraceRecord{JobID: "x", Tree: strings.Repeat("x", 200)})
	tb.add(&TraceRecord{JobID: "y", Tree: strings.Repeat("y", 200)})
	if _, ok := tb.get("x"); ok {
		t.Error("byte bound did not evict the oldest record")
	}
	if _, ok := tb.get("y"); !ok {
		t.Error("newest record must always survive")
	}
}

// TestMetricsEndpoint: /metrics serves the Prometheus exposition with
// the daemon counters, per-client depth gauges, and process metrics.
func TestMetricsEndpoint(t *testing.T) {
	o := telemetryObs()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, Obs: o})
	for i := 0; i < 2; i++ {
		resp := submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"})
		resp.Body.Close()
	}
	resp := submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit = %d, want 429", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypePrometheus)
	}
	body, _ := io.ReadAll(mr.Body)
	got := string(body)
	for _, s := range []string{
		"# TYPE serve_jobs_accepted counter",
		"serve_jobs_accepted 2",
		`serve_queue_depth{client="alice"} 2`,
		"serve_backpressure_429 1",
		"serve_backpressure_retry_after_seconds",
		"go_goroutines",
		"process_uptime_seconds",
	} {
		if !strings.Contains(got, s) {
			t.Errorf("/metrics missing %q:\n%s", s, got)
		}
	}
}

// TestStatsIncludesTelemetry: /api/v1/stats carries the event-bus and
// trace-ring counters.
func TestStatsIncludesTelemetry(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Obs: telemetryObs()})
	srv.Start()
	j := decodeJob(t, submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"}))
	waitTerminal(t, srv, j.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Events == nil {
		t.Fatal("stats missing events")
	}
	if st.Events.Published == 0 {
		t.Errorf("events published = 0, want >0 (job transitions)")
	}
	if st.Traces == nil || st.Traces.Retained != 1 {
		t.Errorf("traces stats = %+v, want retained=1", st.Traces)
	}
}

// TestEventPublishInactiveAllocs: with no subscribers, the sweep-cell
// publish guard costs nothing — no allocations, no event construction.
func TestEventPublishInactiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	bus := newEventBus(nil)
	if n := testing.AllocsPerRun(200, func() {
		if bus.active() {
			bus.publish(Event{Type: "sweep", Sweep: &SweepEvent{JobID: "j", Done: 1, Total: 2}})
		}
	}); n != 0 {
		t.Errorf("inactive publish guard allocates %.1f times per call, want 0", n)
	}
}

// TestJobTraceCaptureAllocs: capturing a finished job's trace allocates
// O(spans) — doubling the span count must not much more than double the
// allocations (no quadratic rendering, no hidden copies of the ring).
func TestJobTraceCaptureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	o := telemetryObs()
	srv, err := New(Config{Workers: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	capture := func(spans int) float64 {
		jt := obs.NewTracer()
		jreg := obs.NewChildRegistry(o.Metrics)
		jt.LinkMetrics(jreg)
		ctx := (&obs.Obs{Tracer: jt, Metrics: jreg}).Context(context.Background())
		for i := 0; i < spans; i++ {
			_, s := obs.StartSpan(ctx, "cell")
			s.End()
		}
		j := &Job{ID: "j-alloc", Kind: KindAnalyze, Client: "c", Attempts: 1}
		return testing.AllocsPerRun(10, func() {
			srv.captureTrace(j, jt, jreg)
		})
	}
	a1, a2 := capture(128), capture(256)
	if a1 == 0 {
		t.Fatal("trace capture reported zero allocations — measurement broken")
	}
	if a2 > 2.8*a1 {
		t.Errorf("trace capture allocs grew superlinearly: %0.f @128 spans vs %0.f @256", a1, a2)
	}
}
