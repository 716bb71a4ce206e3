package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config configures one daemon instance. The zero value is usable for
// tests: in-memory only (no journal, no cache), GOMAXPROCS workers,
// defaults everywhere else.
type Config struct {
	// Workers is the job-executor pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the total queued-job population; a submit over
	// the bound is rejected with 429 + Retry-After. 0 means 256.
	QueueDepth int
	// Rate and Burst configure the per-client token bucket: Rate jobs
	// per second sustained, Burst extra capacity. Rate <= 0 disables
	// rate limiting.
	Rate  float64
	Burst int
	// RetryBudget is how many times a retryably-failed job is
	// re-enqueued before it is declared failed. 0 means 2; negative
	// disables retries.
	RetryBudget int
	// RetryBackoff is the base of the exponential backoff between
	// retries (doubled per attempt, plus deterministic jitter). 0 means
	// 250ms.
	RetryBackoff time.Duration
	// JobTimeout bounds one attempt of one job; 0 means no deadline. A
	// timed-out attempt consumes a retry.
	JobTimeout time.Duration
	// JournalPath enables the crash-safe job journal. Empty disables
	// journaling (jobs are lost on restart).
	JournalPath string
	// CacheDir enables the persistent content-addressed store shared by
	// all jobs (and with apex-eval / apex sweep runs pointed at the same
	// directory).
	CacheDir string
	// CacheMaxBytes bounds the cache directory; oldest entries are
	// pruned past it. 0 means unbounded.
	CacheMaxBytes int64
	// FastMode skips place-and-route in every evaluation (the unit-test
	// and smoke-deploy mode).
	FastMode bool
	// Obs is the daemon's observability bundle; nil disables
	// instrumentation.
	Obs *obs.Obs
	// TraceRingSize bounds the per-job trace retention ring (newest
	// records win; traceRingBytes bounds its bytes). 0 means 256
	// records; negative disables trace capture.
	TraceRingSize int

	// SampleInterval is ignored: /metrics is the daemon's one live
	// metrics surface, and a scraper keeps the history. The field stays
	// only until a benchmark change stops setting it.
	//
	// Deprecated: ignored.
	SampleInterval time.Duration
}

// Fixed daemon sizes, each the only value any caller ever used.
const (
	// memoResetEvery is how many terminal jobs pass between drops of
	// the harness's in-memory memo tables, bounding daemon memory; the
	// persistent store keeps warm restarts cheap.
	memoResetEvery = 512
	// eventBuffer is each event-stream subscriber's channel capacity;
	// events past a full buffer are dropped for that subscriber (and
	// counted).
	eventBuffer = 64
	// traceRingBytes is the byte budget of the per-job trace ring.
	traceRingBytes = 16 << 20
)

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 256
}

func (c Config) retryBudget() int {
	switch {
	case c.RetryBudget > 0:
		return c.RetryBudget
	case c.RetryBudget < 0:
		return 0
	default:
		return 2
	}
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 250 * time.Millisecond
}

func (c Config) traceRingSize() int {
	switch {
	case c.TraceRingSize > 0:
		return c.TraceRingSize
	case c.TraceRingSize < 0:
		return 0
	default:
		return 256
	}
}

// Server is the evaluation daemon: an HTTP handler plus the worker pool
// behind it. Construct with New, start the workers with Start, serve
// Handler() however you like (http.Server, httptest), and shut down
// with Drain.
type Server struct {
	cfg   Config
	h     *eval.Harness
	st    *store.Store
	q     *queue
	rl    *rateLimiter
	now   func() time.Time
	nonce string

	// Telemetry: live event fanout and per-job trace retention.
	events    *eventBus
	traces    *traceRing
	startedAt time.Time

	jnl *journal // nil without a journal path

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string // insertion order, for stable pagination
	terminal     int      // terminal jobs in jobs, against journalKeepTerminal
	cancels      map[string]context.CancelFunc
	canceling    map[string]bool // cancellation requested via the API
	clientSeries map[string]bool // clients with a queue-depth gauge

	seq      atomic.Int64 // job-ID counter (per process)
	draining atomic.Bool
	done     atomic.Int64 // terminal jobs, drives memoResetEvery

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	started    atomic.Bool
}

// New builds a daemon: harness, store, rate limiter, queue, and — when
// a journal is configured — the resumed pending jobs of a previous
// incarnation, re-enqueued and ready to run on Start.
func New(cfg Config) (*Server, error) {
	h := eval.NewHarness()
	h.FastMode = cfg.FastMode
	h.Workers = 1 // jobs are the unit of parallelism; one cell each
	h.KeepGoing = true
	// The harness gets the daemon bundle minus the tracer: spans belong
	// to the per-job tracers runJob installs (a daemon-lifetime tracer
	// would accumulate spans without bound), while memo/cache counters
	// and logging stay daemon-wide.
	hobs := cfg.Obs
	if hobs != nil && hobs.Tracer != nil {
		hobs = &obs.Obs{Metrics: hobs.Metrics, Logger: hobs.Logger}
	}
	h.SetObs(hobs)

	s := &Server{
		cfg:          cfg,
		h:            h,
		now:          time.Now,
		startedAt:    time.Now(),
		jobs:         map[string]*Job{},
		cancels:      map[string]context.CancelFunc{},
		canceling:    map[string]bool{},
		clientSeries: map[string]bool{},
	}
	s.events = newEventBus(func(n int64) { s.count("serve.events.dropped", n) })
	if n := cfg.traceRingSize(); n > 0 {
		s.traces = newTraceRing(n, traceRingBytes)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.q = newQueue(cfg.queueDepth(), func() time.Time { return s.now() })
	s.rl = newRateLimiter(cfg.Rate, cfg.Burst, func() time.Time { return s.now() })

	var nb [4]byte
	rand.Read(nb[:])
	s.nonce = hex.EncodeToString(nb[:])

	if cfg.CacheDir != "" {
		st, err := store.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		if cfg.CacheMaxBytes > 0 {
			st.SetMaxBytes(cfg.CacheMaxBytes)
		}
		s.st = st
		h.SetStore(st)
	}

	if cfg.JournalPath != "" {
		journaled, err := loadJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.jnl = newJournal(cfg.JournalPath)
		resumed := 0
		for _, j := range sortedByID(journaled) {
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
			if j.State.terminal() {
				s.terminal++
				continue
			}
			// Running died with the previous process; it is pending again.
			j.State = StateQueued
			j.Seq++
			s.q.push(j, true)
			resumed++
		}
		if resumed > 0 {
			s.count("serve.jobs.resumed", int64(resumed))
			s.logger().Info("resumed journaled jobs", "count", resumed, "journal", cfg.JournalPath)
		}
	}
	return s, nil
}

// sortedByID returns the jobs in ID order so resume order (and thus the
// queue's initial rotation) is deterministic.
func sortedByID(m map[string]*Job) []*Job {
	out := make([]*Job, 0, len(m))
	for _, j := range m {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Harness exposes the daemon's evaluation harness. Intended for tests
// (fault-plan installation) and for pre-Start tuning; do not mutate it
// after Start.
func (s *Server) Harness() *eval.Harness { return s.h }

// Store returns the attached persistent store (nil without CacheDir).
func (s *Server) Store() *store.Store { return s.st }

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	n := s.cfg.Workers
	if n <= 0 {
		n = defaultWorkers()
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.q.pop()
				if j == nil {
					return
				}
				s.runJob(j)
			}
		}()
	}
}

// Draining reports whether the daemon has stopped accepting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the daemon down: new submissions are rejected
// with 503, workers stop picking up queued jobs (which stay journaled
// as pending), and in-flight jobs get until ctx's deadline to finish —
// past it they are canceled and journaled as pending too. Every
// accepted job is terminal or journaled-pending when Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.logger().Info("drain started", "queued", s.q.len())
	s.q.close()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	var timedOut bool
	select {
	case <-idle:
	case <-ctx.Done():
		timedOut = true
		s.baseCancel() // in-flight jobs observe fault.ErrCanceled
		<-idle         // their requeue-as-pending bookkeeping is in runJob
	}

	// Final flush: every non-terminal job (still queued, or requeued by
	// the cancellation above) persists as pending.
	err := s.journalAll()
	if err != nil {
		s.logger().Warn("final journal flush failed", "err", err.Error())
	}
	if s.jnl != nil {
		s.jnl.release()
	}

	// Close the event stream after the workers are idle, so every
	// terminal event has been published; subscribers see EOF.
	s.events.closeAll()
	if err != nil {
		return err
	}
	s.logger().Info("drain finished", "timed_out", timedOut)
	return nil
}

// Close is Drain with an immediate deadline plus resource teardown —
// the test-suite shutdown path.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	s.baseCancel()
}

// newJob allocates a job shell for a submission.
func (s *Server) newJob(client string, kind Kind, p Params) *Job {
	id := fmt.Sprintf("j-%s-%06d", s.nonce, s.seq.Add(1))
	return &Job{
		ID:      id,
		Seq:     1,
		Client:  client,
		Kind:    kind,
		Params:  p,
		State:   StateQueued,
		Created: s.now().UTC(),
	}
}

// submit runs the full acceptance pipeline for a validated job. The
// returned HTTP-ish status is 0 on acceptance; otherwise it is the
// rejection status paired with a Retry-After hint.
func (s *Server) submit(j *Job) (status int, retryAfter time.Duration) {
	if s.draining.Load() {
		s.count("serve.http.rejected.drain", 1)
		return 503, 5 * time.Second
	}
	if ok, wait := s.rl.allow(j.Client); !ok {
		s.count("serve.http.rejected.rate", 1)
		return 429, wait
	}

	// The job enters the queue, the job table and the event stream in
	// one critical section. A worker may pop it at once, but its
	// "running" transition takes s.mu, so every subscriber sees
	// "queued" first; a rejected job is never visible at all.
	s.mu.Lock()
	err := s.q.push(j, false)
	if err == nil {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if s.events != nil {
			s.events.publish(s.jobEvent(j))
		}
	}
	s.mu.Unlock()
	if err != nil {
		if errors.As(err, &errClosed{}) {
			s.count("serve.http.rejected.drain", 1)
			return 503, 5 * time.Second
		}
		s.count("serve.http.rejected.full", 1)
		return 429, s.fullRetryAfter()
	}
	s.gauge("serve.queue.depth", int64(s.q.len()))
	s.noteClientDepth(j.Client)
	s.count("serve.jobs.accepted", 1)
	s.journal(j)
	return 0, 0
}

// fullRetryAfter estimates how long until the queue has room: one
// second per queued job per worker, floored at one second — coarse, but
// it scales the hint with the actual backlog.
func (s *Server) fullRetryAfter() time.Duration {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	d := time.Duration(s.q.len()/workers) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

// transition mutates a job under the server lock and bumps its Seq.
func (s *Server) transition(j *Job, mutate func()) {
	s.mu.Lock()
	mutate()
	j.Seq++
	s.mu.Unlock()
}

// runJob executes one attempt of a job and applies the fault-taxonomy
// policy to its outcome.
func (s *Server) runJob(j *Job) {
	s.transition(j, func() {
		j.State = StateRunning
		j.Started = s.now().UTC()
		j.Attempts++
	})
	s.gauge("serve.queue.depth", int64(s.q.len()))
	s.noteClientDepth(j.Client)
	s.count("serve.jobs.started", 1)
	s.gaugeAdd("serve.jobs.running", 1)
	defer s.gaugeAdd("serve.jobs.running", -1)
	s.publishJob(j)

	// Each attempt runs under its own observability scope: a fresh
	// tracer (whose canonical tree is schedule- and attempt-invariant —
	// the trace endpoint's byte-identical-resume contract) and a child
	// registry that scopes the job's metric deltas while mirroring them
	// into the daemon-wide registry. The job attrs live on a "job" span,
	// not the root, and exclude the attempt number, which is recorded on
	// the TraceRecord instead.
	ctx := s.baseCtx
	var jt *obs.Tracer
	var jreg *obs.Registry
	if s.cfg.Obs != nil {
		jt = obs.NewTracer()
		if s.cfg.Obs.Metrics != nil {
			jreg = obs.NewChildRegistry(s.cfg.Obs.Metrics)
			jt.LinkMetrics(jreg)
		}
		jobObs := &obs.Obs{Tracer: jt, Metrics: jreg, Logger: s.cfg.Obs.Logger}
		ctx = jobObs.Context(ctx)
	}
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	s.mu.Lock()
	s.cancels[j.ID] = cancel
	s.mu.Unlock()

	jctx, jobSpan := obs.StartSpan(ctx, "job",
		obs.String("id", j.ID), obs.String("kind", string(j.Kind)), obs.String("client", j.Client))
	result, err := s.execute(jctx, j)
	jobSpan.End()
	s.captureTrace(j, jt, jreg)

	s.mu.Lock()
	delete(s.cancels, j.ID)
	apiCanceled := s.canceling[j.ID]
	delete(s.canceling, j.ID)
	s.mu.Unlock()
	deadlineHit := errors.Is(ctx.Err(), context.DeadlineExceeded)
	cancel()

	switch {
	case err == nil:
		s.finish(j, func() {
			j.State = StateDone
			j.Result = result
			j.Error, j.ErrorKind = "", ""
		})
		s.count("serve.jobs.done", 1)

	case apiCanceled:
		// Drop the memoized cancellation error so a later resubmission of
		// the same cell computes instead of replaying the canceled result.
		s.forgetMemo(j)
		s.finish(j, func() {
			j.State = StateCanceled
			j.Error = err.Error()
			j.ErrorKind = "canceled"
		})
		s.count("serve.jobs.canceled", 1)

	default:
		s.disposeFailure(j, err, deadlineHit)
	}

	if n := s.done.Load(); n > 0 && n%memoResetEvery == 0 {
		s.h.ResetMemos()
	}
}

// disposeFailure maps a failed attempt onto the fault taxonomy:
// retryable errors (and per-job timeouts) re-enqueue with backoff while
// the retry budget lasts; cancellation during drain parks the job as
// journaled-pending; everything else is terminal. Degradable outcomes
// do not reach here — the core retry ladder already converts them into
// completed results with Degraded/Reason set, which the job reports as
// success.
func (s *Server) disposeFailure(j *Job, err error, deadlineHit bool) {
	class := fault.Classify(err)
	kind := class.String()

	if class == fault.ClassCanceled {
		switch {
		case s.baseCtx.Err() != nil || s.draining.Load():
			// Shutdown, not failure: park the job as pending; the final
			// drain flush (or the next restart) picks it up.
			s.transition(j, func() {
				j.State = StateQueued
				j.Error = ""
				j.ErrorKind = ""
				j.Started = time.Time{}
			})
			s.journal(j)
			s.count("serve.jobs.parked", 1)
			s.publishJob(j)
			return
		case deadlineHit:
			// The job's own deadline: a transient stall is worth a retry.
			kind = "timeout"
			class = fault.ClassRetryable
		}
	}

	if class == fault.ClassRetryable && j.Attempts <= s.cfg.retryBudget() {
		s.forgetMemo(j)
		backoff := s.backoff(j)
		s.transition(j, func() {
			j.State = StateQueued
			j.Error = err.Error()
			j.ErrorKind = kind
			j.NotBefore = s.now().Add(backoff).UTC()
		})
		s.journal(j)
		s.count("serve.jobs.retried", 1)
		s.publishJob(j)
		s.logger().Info("retrying job", "id", j.ID, "attempt", j.Attempts,
			"backoff", backoff.String(), "err", err.Error())
		if perr := s.q.push(j, true); perr != nil {
			// Drain raced the retry; the job stays journaled-pending.
			return
		}
		s.gauge("serve.queue.depth", int64(s.q.len()))
		s.noteClientDepth(j.Client)
		return
	}

	s.finish(j, func() {
		j.State = StateFailed
		j.Error = err.Error()
		j.ErrorKind = kind
	})
	s.count("serve.jobs.failed", 1)
	s.logger().Warn("job failed", "id", j.ID, "kind", kind,
		"attempts", j.Attempts, "err", err.Error())
}

// finish applies a terminal transition, journals it, and announces it
// on the event stream. Every terminal state passes through here exactly
// once per job lifetime (journal-loaded terminal jobs never re-enter),
// which is what makes terminal events exactly-once.
func (s *Server) finish(j *Job, mutate func()) {
	s.transition(j, func() {
		mutate()
		j.Finished = s.now().UTC()
		j.NotBefore = time.Time{}
		s.terminal++
		s.evictTerminal()
	})
	s.done.Add(1)
	s.journal(j)
	s.publishJob(j)
}

// evictTerminal bounds the job table to the journal's retention: past
// journalKeepTerminal terminal jobs, the first by evictsBefore leave the
// table, so memory holds what a restart would reload and a GET of an
// evicted job is a 404. Pending jobs are never evicted. Called with s.mu
// held.
func (s *Server) evictTerminal() {
	for s.terminal > journalKeepTerminal {
		at := -1
		for i, id := range s.order {
			j := s.jobs[id]
			if !j.State.terminal() {
				continue
			}
			if at < 0 {
				at = i
				continue
			}
			if o := s.jobs[s.order[at]]; evictsBefore(j.Finished, j.ID, o.Finished, o.ID) {
				at = i
			}
		}
		delete(s.jobs, s.order[at])
		s.order = append(s.order[:at], s.order[at+1:]...)
		s.terminal--
	}
}

// backoff computes the delay before a job's next attempt: exponential
// in the attempt count with ±25% jitter derived from the job ID, so a
// burst of jobs failing together does not retry in lockstep, yet the
// schedule of any one job is reproducible.
func (s *Server) backoff(j *Job) time.Duration {
	base := s.cfg.retryBackoff()
	d := base << uint(j.Attempts-1)
	if max := 30 * time.Second; d > max {
		d = max
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%d", j.ID, j.Attempts)
	jitter := (int64(h.Sum32()%512) - 256) // ±256 per mille of half-range
	return d + time.Duration(jitter)*d/1024
}

// forgetMemo invalidates the cached (error) outcome of a job that is
// about to retry — the memo tables deliberately cache failures.
func (s *Server) forgetMemo(j *Job) {
	if j.Kind == KindEvaluate {
		s.h.ForgetResult(j.Params.App, s.variantName(j.Params), j.Params.PnR, j.Params.Pipelined)
		return
	}
	s.h.ResetMemos()
}

// cancelJob serves DELETE: a queued job is removed and terminal, a
// running one has its context canceled (the worker applies the terminal
// state). Returns false when the job is unknown or already terminal.
func (s *Server) cancelJob(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State.terminal() {
		s.mu.Unlock()
		return false
	}
	if cancel, running := s.cancels[id]; running {
		s.canceling[id] = true
		s.mu.Unlock()
		cancel()
		return true
	}
	s.mu.Unlock()

	if s.q.remove(id) {
		s.finish(j, func() {
			j.State = StateCanceled
			j.ErrorKind = "canceled"
			j.Error = "canceled before execution"
		})
		s.count("serve.jobs.canceled", 1)
		s.gauge("serve.queue.depth", int64(s.q.len()))
		s.noteClientDepth(j.Client)
		return true
	}
	// Raced a worker picking it up between the lock and the queue scan;
	// retry as a running cancellation.
	s.mu.Lock()
	if cancel, running := s.cancels[id]; running {
		s.canceling[id] = true
		s.mu.Unlock()
		cancel()
		return true
	}
	terminal := j.State.terminal()
	s.mu.Unlock()
	return terminal
}

// journal persists one job's current state (merge-on-write; see
// journal.go). Journal failures are logged and counted, never fatal —
// the daemon keeps serving from memory.
func (s *Server) journal(j *Job) {
	if s.jnl == nil {
		return
	}
	s.mu.Lock()
	rec := j.clone()
	s.mu.Unlock()
	if err := s.jnl.save(rec); err != nil {
		s.count("serve.journal.errors", 1)
		s.logger().Warn("journal write failed", "id", rec.ID, "err", err.Error())
	}
}

// journalAll flushes every known job (the drain path).
func (s *Server) journalAll() error {
	if s.jnl == nil {
		return nil
	}
	s.mu.Lock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j.clone())
	}
	s.mu.Unlock()
	return s.jnl.save(all...)
}

// JobSnapshot returns a copy of one job, for tests and the API layer.
func (s *Server) JobSnapshot(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Jobs returns copies of all jobs in insertion order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

func (s *Server) logger() *slog.Logger {
	if s.cfg.Obs != nil && s.cfg.Obs.Logger != nil {
		return s.cfg.Obs.Logger
	}
	return obs.Logger(context.Background())
}

func (s *Server) count(name string, n int64) {
	if s.cfg.Obs != nil && s.cfg.Obs.Metrics != nil {
		s.cfg.Obs.Metrics.Counter(name).Add(n)
	}
}

func (s *Server) gauge(name string, v int64) {
	if s.cfg.Obs != nil && s.cfg.Obs.Metrics != nil {
		s.cfg.Obs.Metrics.Gauge(name).Set(v)
	}
}

func (s *Server) gaugeAdd(name string, delta int64) {
	if s.cfg.Obs != nil && s.cfg.Obs.Metrics != nil {
		s.cfg.Obs.Metrics.Gauge(name).Add(delta)
	}
}
