package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// API surface (all JSON):
//
//	POST   /api/v1/jobs            submit {kind, params, client?} → 202 job
//	GET    /api/v1/jobs            list summaries (?state=&client=&offset=&limit=)
//	GET    /api/v1/jobs/{id}       one job, result included when done
//	GET    /api/v1/jobs/{id}/result the raw result document (404 until done)
//	DELETE /api/v1/jobs/{id}       cancel (queued: immediate; running: ctx cancel)
//	GET    /api/v1/jobs/{id}/trace per-job span tree (?format=tree|chrome|json)
//	GET    /api/v1/stats           queue, job, store, memo, event and trace status
//	GET    /api/v1/events          live event stream (SSE, ?types=job,sweep)
//	GET    /metrics                Prometheus text exposition (v0.0.4)
//	GET    /healthz                liveness (200 while the process serves)
//	GET    /readyz                 readiness (503 once draining)
//
// Backpressure contract: a 429 (queue full or rate limited) and a 503
// (draining) always carry Retry-After in whole seconds, rounded up so a
// client that sleeps exactly that long cannot arrive early.

// submitRequest is the POST /api/v1/jobs body.
type submitRequest struct {
	Kind   Kind   `json:"kind"`
	Params Params `json:"params"`
	// Client overrides the client identity (else X-Apex-Client, else the
	// remote IP). Fairness and rate limits key on it.
	Client string `json:"client,omitempty"`
}

type apiError struct {
	Error string `json:"error"`
}

// listResponse pages job summaries.
type listResponse struct {
	Total  int    `json:"total"`
	Offset int    `json:"offset"`
	Limit  int    `json:"limit"`
	Jobs   []*Job `json:"jobs"`
	// NextOffset is present while more pages remain.
	NextOffset *int `json:"next_offset,omitempty"`
}

// statsResponse is the GET /api/v1/stats document.
type statsResponse struct {
	Draining   bool           `json:"draining"`
	Queued     int            `json:"queued"`
	Jobs       map[State]int  `json:"jobs"`
	Store      any            `json:"store,omitempty"`
	MemoTables map[string]any `json:"memo_tables,omitempty"`
	Events     *eventStats    `json:"events,omitempty"`
	Traces     *traceStats    `json:"traces,omitempty"`
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeRetryAfter rejects with a Retry-After hint in whole seconds,
// rounded up (a zero hint still advertises one second). Each rejection
// is counted, as are the advertised seconds, so operators can see both
// how often backpressure fires and how much delay it is handing out.
func (s *Server) writeRetryAfter(w http.ResponseWriter, status int, wait time.Duration, msg string) {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	switch status {
	case http.StatusTooManyRequests:
		s.count("serve.backpressure.429", 1)
	case http.StatusServiceUnavailable:
		s.count("serve.backpressure.503", 1)
	}
	s.count("serve.backpressure.retry_after_seconds", secs)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, apiError{Error: msg})
}

// clientID resolves the fairness/rate-limit identity of a request.
func clientID(r *http.Request, override string) string {
	if override != "" {
		return override
	}
	if c := r.Header.Get("X-Apex-Client"); c != "" {
		// Header values may carry any byte; the journal holds the ID
		// as a JSON string, whose encoding rewrites invalid UTF-8, so
		// it is made valid here, once.
		return strings.ToValidUTF8(c, "\uFFFD")
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	if err := req.Params.Validate(req.Kind); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := s.newJob(clientID(r, req.Client), req.Kind, req.Params)
	switch status, wait := s.submit(j); status {
	case 0:
		// Snapshot under the lock: a worker may already be running the job.
		snap, _ := s.JobSnapshot(j.ID)
		writeJSON(w, http.StatusAccepted, snap)
	case http.StatusTooManyRequests:
		s.writeRetryAfter(w, status, wait, "over capacity: retry later")
	case http.StatusServiceUnavailable:
		s.writeRetryAfter(w, status, wait, "draining: not accepting jobs")
	default:
		writeError(w, status, "rejected")
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	offset, limit := 0, 50
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid offset %q", v)
			return
		}
		offset = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 500 {
			writeError(w, http.StatusBadRequest, "invalid limit %q (want 1..500)", v)
			return
		}
		limit = n
	}
	stateFilter := State(q.Get("state"))
	clientFilter := q.Get("client")

	s.mu.Lock()
	var filtered []*Job
	for _, id := range s.order {
		j := s.jobs[id]
		if stateFilter != "" && j.State != stateFilter {
			continue
		}
		if clientFilter != "" && j.Client != clientFilter {
			continue
		}
		filtered = append(filtered, j)
	}
	total := len(filtered)
	resp := listResponse{Total: total, Offset: offset, Limit: limit, Jobs: []*Job{}}
	for i := offset; i < total && i < offset+limit; i++ {
		resp.Jobs = append(resp.Jobs, filtered[i].summary())
	}
	s.mu.Unlock()

	if next := offset + limit; next < total {
		resp.NextOffset = &next
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobSnapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.JobSnapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch j.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(j.Result)
	case StateFailed, StateCanceled:
		writeError(w, http.StatusConflict, "job %s: %s (%s)", j.State, j.Error, j.ErrorKind)
	default:
		writeError(w, http.StatusNotFound, "job is %s; no result yet", j.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobSnapshot(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(id) {
		writeError(w, http.StatusConflict, "job already terminal")
		return
	}
	j, _ := s.JobSnapshot(id)
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Draining: s.draining.Load(),
		Queued:   s.q.len(),
		Jobs:     map[State]int{},
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		resp.Jobs[j.State]++
	}
	s.mu.Unlock()
	if s.st != nil {
		st := s.st.Stats()
		resp.Store = &st
	}
	memo := map[string]any{}
	for name, ms := range s.h.MemoStats() {
		memo[name] = ms
	}
	resp.MemoTables = memo
	if s.events != nil {
		es := s.events.stats()
		resp.Events = &es
	}
	if s.traces != nil {
		ts := s.traces.stats()
		resp.Traces = &ts
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleMetrics serves the Prometheus text exposition: the full metrics
// registry plus process-level series. Served even with no registry
// configured (process metrics alone still tell an operator the daemon
// is alive).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	if s.cfg.Obs != nil && s.cfg.Obs.Metrics != nil {
		obs.WritePrometheus(w, s.cfg.Obs.Metrics.Snapshot())
	}
	obs.WriteProcessMetrics(w, s.startedAt)
}

// handleTrace serves a finished job's captured trace. Formats:
//
//	tree   (default) the canonical time-free span tree, text/plain
//	chrome the Chrome trace_event JSON (load in chrome://tracing)
//	json   the full record: tree + per-job metrics delta + identity
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobSnapshot(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	rec, ok := s.traces.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace retained for job %s (not run yet, capture disabled, or evicted)", id)
		return
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(rec.Tree))
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Write(rec.Chrome)
	case "json":
		writeJSON(w, http.StatusOK, rec)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want tree, chrome, or json)", f)
	}
}

// handleEvents streams the live event bus over SSE. Each event is one
// frame (id = sequence number, event = type, data = JSON). A slow
// consumer drops events rather than slowing the daemon; the drop count
// is in /api/v1/stats. The stream ends when the client disconnects or
// the daemon drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var types []string
	if v := r.URL.Query().Get("types"); v != "" {
		types = strings.Split(v, ",")
	}
	sub := s.events.subscribe(types, eventBuffer)
	defer s.events.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 3000\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.ch:
			if !open {
				return // bus closed: daemon draining
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		}
	}
}
