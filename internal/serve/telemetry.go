package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Telemetry layer: the live event stream (SSE fanout with slow-consumer
// drop accounting) and the bounded per-job trace retention ring.

// Event is one entry of the live event stream. Exactly one of Job and
// Sweep is set, matching Type. Events deliberately carry no timestamps:
// the set of events a workload produces is deterministic (the churn and
// worker-invariance tests compare event sets across schedules).
type Event struct {
	Seq   int64       `json:"seq"`
	Type  string      `json:"type"` // "job" | "sweep"
	Job   *JobEvent   `json:"job,omitempty"`
	Sweep *SweepEvent `json:"sweep,omitempty"`
}

// JobEvent announces a job state transition.
type JobEvent struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Kind      Kind   `json:"kind"`
	Client    string `json:"client"`
	Attempt   int    `json:"attempt"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// SweepEvent announces one completed cell of a running sweep job.
type SweepEvent struct {
	JobID   string `json:"job_id"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Cell    int    `json:"cell"`
	App     string `json:"app"`
	Variant string `json:"variant"`
	Err     string `json:"error,omitempty"`
}

// eventSub is one subscriber: a bounded channel plus an optional type
// filter. When the channel is full at publish time the event is dropped
// for that subscriber (never blocking the worker) and the drop is
// counted — a slow SSE consumer loses events, not the daemon.
type eventSub struct {
	ch      chan Event
	types   map[string]bool // nil means all types
	dropped atomic.Int64
}

// eventBus is the in-process fanout behind GET /api/v1/events.
type eventBus struct {
	mu        sync.Mutex
	seq       int64
	subs      map[*eventSub]struct{}
	closed    bool
	nsubs     atomic.Int32
	published atomic.Int64
	dropped   atomic.Int64
	onDrop    func(n int64) // optional metrics hook
}

func newEventBus(onDrop func(int64)) *eventBus {
	return &eventBus{subs: map[*eventSub]struct{}{}, onDrop: onDrop}
}

// active reports whether anyone is listening — the cheap guard hot
// publishers (sweep cells) check before building an event.
func (b *eventBus) active() bool { return b != nil && b.nsubs.Load() > 0 }

// subscribe registers a subscriber with the given buffer capacity.
// types restricts delivery ("job", "sweep"); empty means everything.
// Subscribing to a closed (draining) bus returns a sub whose channel is
// already closed.
func (b *eventBus) subscribe(types []string, buf int) *eventSub {
	if buf < 1 {
		buf = 1
	}
	sub := &eventSub{ch: make(chan Event, buf)}
	if len(types) > 0 {
		sub.types = map[string]bool{}
		for _, t := range types {
			if t = strings.TrimSpace(t); t != "" {
				sub.types[t] = true
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(sub.ch)
		return sub
	}
	b.subs[sub] = struct{}{}
	b.nsubs.Add(1)
	return sub
}

// unsubscribe removes a subscriber and closes its channel (idempotent).
func (b *eventBus) unsubscribe(sub *eventSub) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub]; !ok {
		return
	}
	delete(b.subs, sub)
	b.nsubs.Add(-1)
	close(sub.ch)
}

// publish assigns the event its sequence number and fans it out without
// blocking: a full subscriber buffer drops the event for that
// subscriber.
func (b *eventBus) publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	b.published.Add(1)
	var drops int64
	for sub := range b.subs {
		if sub.types != nil && !sub.types[ev.Type] {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			b.dropped.Add(1)
			drops++
		}
	}
	b.mu.Unlock()
	if drops > 0 && b.onDrop != nil {
		b.onDrop(drops)
	}
}

// closeAll shuts the bus down: every subscriber's channel closes and
// later publishes are dropped (the drain path).
func (b *eventBus) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		close(sub.ch)
	}
	b.subs = map[*eventSub]struct{}{}
	b.nsubs.Store(0)
}

// eventStats surfaces the bus counters in /api/v1/stats.
type eventStats struct {
	Subscribers int   `json:"subscribers"`
	Published   int64 `json:"published"`
	Dropped     int64 `json:"dropped"`
}

func (b *eventBus) stats() eventStats {
	return eventStats{
		Subscribers: int(b.nsubs.Load()),
		Published:   b.published.Load(),
		Dropped:     b.dropped.Load(),
	}
}

// TraceRecord is one finished job attempt's captured observability:
// the canonical (time-free, schedule-invariant) span tree, the Chrome
// trace_event JSON, and the job's metrics delta (the per-job child
// registry's snapshot). Attempt lives here, not in the span tree, so a
// journal-resumed re-run of the same work renders a byte-identical
// tree.
type TraceRecord struct {
	JobID   string           `json:"job_id"`
	Kind    Kind             `json:"kind"`
	Client  string           `json:"client"`
	Attempt int              `json:"attempt"`
	Spans   int              `json:"spans"`
	Bytes   int64            `json:"bytes"`
	Tree    string           `json:"tree"`
	Metrics obs.RegistrySnap `json:"metrics"`
	Chrome  json.RawMessage  `json:"-"`
}

// traceRing retains the newest trace records under two bounds: a record
// count and a byte budget (tree + chrome + an estimate of the metrics
// snapshot). Either bound overflowing evicts oldest-first; the newest
// record always stays, even if alone over budget.
type traceRing struct {
	mu       sync.Mutex
	maxN     int
	maxBytes int64
	bytes    int64
	recs     []*TraceRecord
	byID     map[string]*TraceRecord
	evicted  int64
}

func newTraceRing(maxN int, maxBytes int64) *traceRing {
	return &traceRing{maxN: maxN, maxBytes: maxBytes, byID: map[string]*TraceRecord{}}
}

// recordBytes estimates a record's retained size.
func recordBytes(rec *TraceRecord) int64 {
	n := int64(256 + len(rec.Tree) + len(rec.Chrome))
	n += int64(48 * (len(rec.Metrics.Counters) + len(rec.Metrics.Gauges)))
	for _, h := range rec.Metrics.Histograms {
		n += int64(96 + 16*len(h.Buckets))
	}
	return n
}

// add retains a record, evicting oldest records past either bound. A
// re-run job replaces its earlier record as the lookup target (the ring
// keeps the old attempt until it ages out).
func (tr *traceRing) add(rec *TraceRecord) {
	if tr == nil {
		return
	}
	rec.Bytes = recordBytes(rec)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.recs = append(tr.recs, rec)
	tr.bytes += rec.Bytes
	tr.byID[rec.JobID] = rec
	for len(tr.recs) > 1 && (len(tr.recs) > tr.maxN || tr.bytes > tr.maxBytes) {
		old := tr.recs[0]
		tr.recs = tr.recs[1:]
		tr.bytes -= old.Bytes
		tr.evicted++
		if tr.byID[old.JobID] == old {
			delete(tr.byID, old.JobID)
		}
	}
}

// get returns the newest retained record for a job.
func (tr *traceRing) get(jobID string) (*TraceRecord, bool) {
	if tr == nil {
		return nil, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rec, ok := tr.byID[jobID]
	return rec, ok
}

// traceStats surfaces the ring occupancy in /api/v1/stats.
type traceStats struct {
	Retained int   `json:"retained"`
	Bytes    int64 `json:"bytes"`
	Evicted  int64 `json:"evicted"`
}

func (tr *traceRing) stats() traceStats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return traceStats{Retained: len(tr.recs), Bytes: tr.bytes, Evicted: tr.evicted}
}

// captureTrace snapshots a finished attempt's tracer and delta registry
// into the ring. Called before the terminal transition, so a client
// that saw the job finish can always fetch the trace (ring bounds
// permitting).
func (s *Server) captureTrace(j *Job, jt *obs.Tracer, jreg *obs.Registry) {
	if s.traces == nil || jt == nil {
		return
	}
	rec := &TraceRecord{
		JobID:   j.ID,
		Kind:    j.Kind,
		Client:  j.Client,
		Attempt: j.Attempts,
		Spans:   jt.SpanCount(),
		Tree:    jt.TreeString(false),
	}
	var buf bytes.Buffer
	if err := jt.WriteChromeTrace(&buf); err == nil {
		rec.Chrome = json.RawMessage(buf.Bytes())
	}
	if jreg != nil {
		rec.Metrics = jreg.Snapshot()
	}
	s.traces.add(rec)
}

// publishJob emits a job state-transition event (no-op with no bus).
func (s *Server) publishJob(j *Job) {
	if s.events == nil {
		return
	}
	s.mu.Lock()
	ev := s.jobEvent(j)
	s.mu.Unlock()
	s.events.publish(ev)
}

// jobEvent snapshots a job's state as an event; s.mu must be held.
func (s *Server) jobEvent(j *Job) Event {
	return Event{Type: "job", Job: &JobEvent{
		ID:        j.ID,
		State:     j.State,
		Kind:      j.Kind,
		Client:    j.Client,
		Attempt:   j.Attempts,
		Error:     j.Error,
		ErrorKind: j.ErrorKind,
	}}
}

// clientLabel sanitizes a client identity for embedding as a label
// value in a registry name ("serve.queue.depth{client=...}"): the
// name-encoding's structural characters and exposition escapes are
// replaced, so the exposition parser round-trips it.
func clientLabel(c string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '{', '}', ',', '=', '"', '\\', '\n':
			return '_'
		}
		return r
	}, c)
}

// maxClientSeries bounds per-client gauge cardinality: past it, new
// clients stop getting their own series (the overflow is counted).
const maxClientSeries = 64

// noteClientDepth refreshes the per-client queue-depth gauge.
func (s *Server) noteClientDepth(client string) {
	if s.cfg.Obs == nil || s.cfg.Obs.Metrics == nil {
		return
	}
	s.mu.Lock()
	if !s.clientSeries[client] {
		if len(s.clientSeries) >= maxClientSeries {
			s.mu.Unlock()
			s.count("serve.metrics.client_overflow", 1)
			return
		}
		s.clientSeries[client] = true
	}
	s.mu.Unlock()
	name := "serve.queue.depth{client=" + clientLabel(client) + "}"
	s.cfg.Obs.Metrics.Gauge(name).Set(int64(s.q.clientLen(client)))
}
