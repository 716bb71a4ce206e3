package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/fault"
)

// The serve tests run everything in FastMode (post-mapping only) so a
// full API round trip costs well under a second once the memo tables
// warm; "gaussian" is the smallest analyzed application.

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.FastMode = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submitJob(t *testing.T, ts *httptest.Server, client string, kind Kind, p Params) *http.Response {
	t.Helper()
	body, err := json.Marshal(submitRequest{Kind: kind, Params: p, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) *Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return &j
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, srv *Server, id string, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := srv.JobSnapshot(id); ok && j.State.terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := srv.JobSnapshot(id)
	t.Fatalf("job %s not terminal after %v (state %v)", id, timeout, j)
	return nil
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		kind Kind
		p    Params
	}{
		{"bogus", Params{}},
		{KindAnalyze, Params{}},                        // missing app
		{KindEvaluate, Params{App: "gaussian", K: 65}}, // absurd k
		{KindCompile, Params{}},                        // missing source
		{KindSweep, Params{}},                          // missing grid
	}
	for _, c := range cases {
		resp := submitJob(t, ts, "c", c.kind, c.p)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s %+v = %d, want 400", c.kind, c.p, resp.StatusCode)
		}
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	// Workers never started: the queue fills deterministically.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for i := 0; i < 2; i++ {
		resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over depth = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive whole-seconds hint", ra)
	}
}

func TestBackpressureRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64, Rate: 0.1, Burst: 1})
	resp := submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	resp = submitJob(t, ts, "alice", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429 (rate limited)", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("rate-limited 429 missing Retry-After")
	}
	// Fairness: another client's bucket is untouched.
	resp = submitJob(t, ts, "bob", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client submit = %d, want 202", resp.StatusCode)
	}
}

func TestJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Start()

	resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian", Top: 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	j := decodeJob(t, resp)
	done := waitTerminal(t, srv, j.ID, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", done.State, done.Error)
	}

	// GET the job and its result document.
	gr, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeJob(t, gr)
	if got.State != StateDone || len(got.Result) == 0 {
		t.Fatalf("GET job = %s with %d result bytes", got.State, len(got.Result))
	}
	rr, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d, want 200", rr.StatusCode)
	}
	var ar analyzeResult
	if err := json.NewDecoder(rr.Body).Decode(&ar); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if ar.App != "gaussian" || ar.Mined == 0 || len(ar.Patterns) == 0 || len(ar.Patterns) > 3 {
		t.Fatalf("analyze result = %+v", ar)
	}

	// Unknown job is a clean 404.
	nf, _ := http.Get(ts.URL + "/api/v1/jobs/j-nope")
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown = %d, want 404", nf.StatusCode)
	}
}

func TestListPagination(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	// Workers not started: jobs stay queued in a stable order.
	var ids []string
	for i := 0; i < 5; i++ {
		resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
		ids = append(ids, decodeJob(t, resp).ID)
	}
	_ = srv

	page := func(q string) listResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s = %d", q, resp.StatusCode)
		}
		var lr listResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}

	p1 := page("?limit=2")
	if p1.Total != 5 || len(p1.Jobs) != 2 || p1.NextOffset == nil || *p1.NextOffset != 2 {
		t.Fatalf("page 1 = total %d, %d jobs, next %v", p1.Total, len(p1.Jobs), p1.NextOffset)
	}
	if p1.Jobs[0].ID != ids[0] || p1.Jobs[1].ID != ids[1] {
		t.Fatalf("page 1 order = %s, %s", p1.Jobs[0].ID, p1.Jobs[1].ID)
	}
	p3 := page("?limit=2&offset=4")
	if len(p3.Jobs) != 1 || p3.NextOffset != nil || p3.Jobs[0].ID != ids[4] {
		t.Fatalf("last page = %d jobs, next %v", len(p3.Jobs), p3.NextOffset)
	}
	if lr := page("?state=queued"); lr.Total != 5 {
		t.Fatalf("state filter total = %d, want 5", lr.Total)
	}
	if lr := page("?state=done"); lr.Total != 0 {
		t.Fatalf("done filter total = %d, want 0", lr.Total)
	}
	// Summaries never carry result payloads.
	for _, j := range p1.Jobs {
		if len(j.Result) != 0 {
			t.Fatal("list summary carries a result payload")
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	// Workers not started: the job is cancelable while queued.
	resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
	j := decodeJob(t, resp)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+j.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	canceled := decodeJob(t, dr)
	if dr.StatusCode != http.StatusOK || canceled.State != StateCanceled {
		t.Fatalf("cancel = %d state %s, want 200 canceled", dr.StatusCode, canceled.State)
	}
	// Second cancel is a conflict; result endpoint reports the canceled state.
	dr2, _ := http.DefaultClient.Do(req)
	dr2.Body.Close()
	if dr2.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel = %d, want 409", dr2.StatusCode)
	}
	rr, _ := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/result")
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", rr.StatusCode)
	}
	if got, _ := srv.JobSnapshot(j.ID); got.State != StateCanceled {
		t.Fatalf("snapshot state = %s", got.State)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	srv.Start()
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ := http.Get(ts.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (process still live)", resp.StatusCode)
	}
	// Submissions during drain get 503 + Retry-After.
	sr := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
	sr.Body.Close()
	if sr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", sr.StatusCode)
	}
	if ra := sr.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	resp := submitJob(t, ts, "c", KindAnalyze, Params{App: "gaussian"})
	resp.Body.Close()
	_ = srv
	sr, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Draining || stats.Queued != 1 || stats.Jobs[StateQueued] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestREADMEDaemonRoutesServed: every daemon URL the README's apexd
// section shows is routed by Handler() for the method its curl line
// uses, so the docs cannot name an endpoint the daemon no longer
// serves. Routing is checked through the mux's own lookup (an empty
// pattern is its unrouted 404 or 405), so no request runs, which keeps
// the streaming /api/v1/events from blocking.
func TestREADMEDaemonRoutesServed(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Serving daemon (`apexd`)")
	if !ok {
		t.Fatal("README.md has no \"Serving daemon (`apexd`)\" section")
	}
	section, _, _ = strings.Cut(section, "\n### ")

	srv, err := New(Config{FastMode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := srv.Handler().(*http.ServeMux)

	urlRE := regexp.MustCompile(`localhost:8728(/[^\s'"?]*)`)
	methodRE := regexp.MustCompile(`-X\s+([A-Z]+)`)
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		method := http.MethodGet
		if m := methodRE.FindStringSubmatch(line); m != nil {
			method = m[1]
		}
		for _, m := range urlRE.FindAllStringSubmatch(line, -1) {
			req := httptest.NewRequest(method, m[1], nil)
			if _, pattern := mux.Handler(req); !strings.HasPrefix(pattern, method+" ") {
				t.Errorf("README shows %s %s, which the daemon does not route", method, m[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no localhost:8728 URLs in the README's daemon section")
	}
}

// TestRetryOnRetryableFault injects a one-shot non-convergence error
// into the evaluation cell: the first attempt fails retryably, the
// daemon invalidates the memoized failure, re-enqueues with backoff,
// and the second attempt succeeds.
func TestRetryOnRetryableFault(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Workers: 1, RetryBudget: 2, RetryBackoff: time.Millisecond,
	})
	srv.Harness().Faults = (&eval.FaultPlan{}).Inject(eval.FaultSpec{
		Stage: "evaluate", Cell: "gaussian|baseline",
		Kind: eval.FaultError, Err: fault.NonConvergencef("injected transient failure"),
		Times: 1,
	})
	srv.Start()

	j := srv.newJob("c", KindEvaluate, Params{App: "gaussian"})
	if status, _ := srv.submit(j); status != 0 {
		t.Fatalf("submit rejected with %d", status)
	}
	done := waitTerminal(t, srv, j.ID, 60*time.Second)
	if done.State != StateDone {
		t.Fatalf("job = %s (%s %s), want done after retry", done.State, done.ErrorKind, done.Error)
	}
	if done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one retry)", done.Attempts)
	}
	var er evalResult
	if err := json.Unmarshal(done.Result, &er); err != nil || er.App != "gaussian" {
		t.Fatalf("result = %s (%v)", done.Result, err)
	}
}

// TestRetryBudgetExhausted keeps the fault firing forever: the job must
// fail terminally with the retryable kind after budget+1 attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Workers: 1, RetryBudget: 1, RetryBackoff: time.Millisecond,
	})
	srv.Harness().Faults = (&eval.FaultPlan{}).Inject(eval.FaultSpec{
		Stage: "evaluate", Cell: "gaussian|baseline",
		Kind: eval.FaultError, Err: fault.NonConvergencef("injected permanent failure"),
	})
	srv.Start()

	j := srv.newJob("c", KindEvaluate, Params{App: "gaussian"})
	if status, _ := srv.submit(j); status != 0 {
		t.Fatalf("submit rejected with %d", status)
	}
	done := waitTerminal(t, srv, j.ID, 60*time.Second)
	if done.State != StateFailed {
		t.Fatalf("job = %s, want failed", done.State)
	}
	if done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (budget 1)", done.Attempts)
	}
	if done.ErrorKind != "retryable" {
		t.Fatalf("error kind = %q, want retryable", done.ErrorKind)
	}
}

// TestJobTimeoutFailsAttempt stalls the evaluation past the per-job
// deadline with retries disabled: the attempt must fail terminally with
// kind "timeout".
func TestJobTimeoutFailsAttempt(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Workers: 1, RetryBudget: -1, JobTimeout: 100 * time.Millisecond,
	})
	srv.Harness().Faults = (&eval.FaultPlan{}).Inject(eval.FaultSpec{
		Stage: "evaluate", Cell: "gaussian|baseline",
		Kind: eval.FaultDelay, Delay: 2 * time.Second,
	})
	srv.Start()

	j := srv.newJob("c", KindEvaluate, Params{App: "gaussian"})
	if status, _ := srv.submit(j); status != 0 {
		t.Fatalf("submit rejected with %d", status)
	}
	done := waitTerminal(t, srv, j.ID, 60*time.Second)
	if done.State != StateFailed {
		t.Fatalf("job = %s (%s), want failed", done.State, done.Error)
	}
	if done.ErrorKind != "timeout" {
		t.Fatalf("error kind = %q, want timeout", done.ErrorKind)
	}
	if done.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (retries disabled)", done.Attempts)
	}
}

// TestFatalFaultIsTerminal: an invariant violation must fail on the
// first attempt, never retried.
func TestFatalFaultIsTerminal(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Workers: 1, RetryBudget: 3, RetryBackoff: time.Millisecond,
	})
	srv.Harness().Faults = (&eval.FaultPlan{}).Inject(eval.FaultSpec{
		Stage: "evaluate", Cell: "gaussian|baseline",
		Kind: eval.FaultError, Err: fault.Invariantf("injected invariant violation"),
	})
	srv.Start()

	j := srv.newJob("c", KindEvaluate, Params{App: "gaussian"})
	if status, _ := srv.submit(j); status != 0 {
		t.Fatalf("submit rejected with %d", status)
	}
	done := waitTerminal(t, srv, j.ID, 60*time.Second)
	if done.State != StateFailed || done.Attempts != 1 {
		t.Fatalf("job = %s after %d attempts, want failed after 1", done.State, done.Attempts)
	}
	if done.ErrorKind != "fatal" {
		t.Fatalf("error kind = %q, want fatal", done.ErrorKind)
	}
}

// TestChurnDrainRestartByteIdentical is the acceptance scenario: N
// concurrent clients submit a mixed workload while the daemon drains;
// every accepted job either finishes or is journaled as pending, every
// over-limit rejection carries Retry-After, and a restarted daemon
// resumes the journaled jobs — producing, through the shared
// content-addressed cache, byte-identical results for identical jobs
// regardless of which incarnation ran them.
func TestChurnDrainRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		QueueDepth:   64,
		RetryBackoff: time.Millisecond,
		JournalPath:  filepath.Join(dir, "journal.json"),
		CacheDir:     filepath.Join(dir, "cache"),
	}
	srv, ts := newTestServer(t, cfg)
	srv.Start()

	// Guaranteed acceptances before the churn begins — one of each kind,
	// so the drain can never race every submission into a 503 and both
	// result groups exist for the byte-identity check below.
	var accepted []string
	for _, warm := range []struct {
		kind Kind
		p    Params
	}{
		{KindAnalyze, Params{App: "gaussian", Top: 3}},
		{KindEvaluate, Params{App: "gaussian"}},
	} {
		resp := submitJob(t, ts, "client-0", warm.kind, warm.p)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("warm-up %s submit = %d", warm.kind, resp.StatusCode)
		}
		accepted = append(accepted, decodeJob(t, resp).ID)
	}

	const clients = 4
	const perClient = 5
	var mu sync.Mutex
	rejected := 0

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < perClient; i++ {
				kind, p := KindAnalyze, Params{App: "gaussian", Top: 3}
				if i%2 == 1 {
					kind, p = KindEvaluate, Params{App: "gaussian"}
				}
				resp := submitJob(t, ts, fmt.Sprintf("client-%d", c), kind, p)
				switch resp.StatusCode {
				case http.StatusAccepted:
					j := decodeJob(t, resp)
					mu.Lock()
					accepted = append(accepted, j.ID)
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("%d rejection missing Retry-After", resp.StatusCode)
					}
					resp.Body.Close()
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					t.Errorf("submit = %d", resp.StatusCode)
					resp.Body.Close()
				}
			}
		}(c)
	}
	close(start)
	// Begin draining while the clients are still submitting.
	time.Sleep(10 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(drainCtx) }()
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(accepted) == 0 {
		t.Fatal("no job was accepted before the drain began")
	}

	// Contract: every accepted job is terminal or journaled-pending.
	journaled, err := loadJournal(cfg.JournalPath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	pending := 0
	for _, id := range accepted {
		j, ok := srv.JobSnapshot(id)
		if !ok {
			t.Fatalf("accepted job %s unknown after drain", id)
		}
		rec, inJournal := journaled[id]
		if !inJournal {
			t.Fatalf("accepted job %s missing from the journal", id)
		}
		if j.State.terminal() {
			continue
		}
		if rec.State.terminal() {
			t.Fatalf("job %s live-state %s but journaled %s", id, j.State, rec.State)
		}
		pending++
	}
	if pending == 0 {
		t.Log("drain finished everything; restart still verifies byte-identical replay")
	}

	// Restart: a new daemon on the same journal and cache resumes the
	// pending jobs to completion.
	srv2, err := New(Config{
		Workers: 2, QueueDepth: 64, FastMode: true,
		RetryBackoff: time.Millisecond,
		JournalPath:  cfg.JournalPath, CacheDir: cfg.CacheDir,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	srv2.Start()
	for _, id := range accepted {
		j := waitTerminal(t, srv2, id, 120*time.Second)
		if j.State != StateDone {
			t.Fatalf("job %s = %s (%s) after restart, want done", id, j.State, j.Error)
		}
	}

	// Byte-identical: all jobs with the same (kind, params) — whether
	// completed by the first daemon or resumed by the second — carry
	// exactly the same result bytes.
	sigs := map[string]string{}
	for _, j := range srv2.Jobs() {
		if j.State != StateDone {
			continue
		}
		pj, _ := json.Marshal(j.Params)
		key := string(j.Kind) + "|" + string(pj)
		if prev, ok := sigs[key]; ok {
			if prev != string(j.Result) {
				t.Fatalf("job %s result differs from an identical job:\n%s\nvs\n%s", j.ID, prev, j.Result)
			}
		} else {
			sigs[key] = string(j.Result)
		}
	}
	if len(sigs) < 2 {
		t.Fatalf("expected at least the analyze and evaluate result groups, got %d", len(sigs))
	}
	t.Logf("churn: %d accepted, %d rejected, %d resumed-pending, %d distinct result groups",
		len(accepted), rejected, pending, len(sigs))
}

// TestCompileJobsBypassGenerated: compile jobs generate their PEs
// outside the harness, so the harness's generated table neither grows
// nor is consulted however many kernels the daemon compiles. User
// source is unbounded input; a table keyed by its patterns would grow
// with every distinct kernel for the daemon's lifetime.
func TestCompileJobsBypassGenerated(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	srv.Start()
	run := func(kind Kind, p Params) {
		t.Helper()
		resp := submitJob(t, ts, "c", kind, p)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d, want 202", kind, resp.StatusCode)
		}
		if j := waitTerminal(t, srv, decodeJob(t, resp).ID, 30*time.Second); j.State != StateDone {
			t.Fatalf("%s job state = %s (%s), want done", kind, j.State, j.Error)
		}
	}
	run(KindEvaluate, Params{App: "gaussian", K: 2})
	before := srv.h.MemoStats()["generated"]
	if before.Misses == 0 {
		t.Fatal("an evaluate job built nothing through the generated table")
	}
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf("input p0, p1, p2, p3, p4, p5, p6, p7\n"+
			"out y = (p0*%[1]d + p1) + (p2*%[1]d + p3) + (p4*%[1]d + p5) + (p6*%[1]d + p7) + %[2]d\n", i+2, i)
		run(KindCompile, Params{Source: src, K: 2})
	}
	if after := srv.h.MemoStats()["generated"]; after != before {
		t.Errorf("compile jobs changed the generated table's stats: %+v, was %+v", after, before)
	}
}

// TestGenerateFromStoredVariant: after ResetMemos a generate job is
// served a variant loaded from the store, whose rule set is built only
// when read. Its payload, rule counts included, must equal the cold
// job's, which built the variant.
func TestGenerateFromStoredVariant(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	srv.Start()
	generate := func() json.RawMessage {
		t.Helper()
		resp := submitJob(t, ts, "c", KindGenerate, Params{App: "gaussian", K: 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit generate = %d, want 202", resp.StatusCode)
		}
		j := waitTerminal(t, srv, decodeJob(t, resp).ID, 30*time.Second)
		if j.State != StateDone {
			t.Fatalf("generate job state = %s (%s), want done", j.State, j.Error)
		}
		return j.Result
	}
	cold := generate()
	srv.Harness().ResetMemos()
	before := srv.Store().Stats()
	warm := generate()
	if after := srv.Store().Stats(); after.Hits == before.Hits || after.Puts != before.Puts {
		t.Fatalf("the second job did not load its variant from the store: %+v, was %+v", after, before)
	}
	var got peResult
	if err := json.Unmarshal(warm, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rules == 0 {
		t.Fatalf("the stored variant reports no rules: %s", warm)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("generate from the stored variant = %s, cold job = %s", warm, cold)
	}
}
