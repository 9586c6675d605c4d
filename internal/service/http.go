package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// CreateOptions is the JSON wire form of the tunable core.Options subset —
// the knobs the shipped tool's command-line/XML interface exposes (§6.1).
type CreateOptions struct {
	// Features selects the physical-design feature set: ALL, IDX, MV,
	// PARTITIONING, IDX_MV, IDX_PARTITIONING (empty = ALL).
	Features string `json:"features,omitempty"`
	// StorageMB bounds the recommendation's extra storage (0 = unbounded).
	StorageMB int64 `json:"storageMB,omitempty"`
	Aligned   bool  `json:"aligned,omitempty"`
	// TimeLimit is a Go duration string ("30s", "10m"); empty = unbounded.
	TimeLimit     string `json:"timeLimit,omitempty"`
	NoCompression bool   `json:"noCompression,omitempty"`
	AllowDrops    bool   `json:"allowDrops,omitempty"`
	EvaluateOnly  bool   `json:"evaluateOnly,omitempty"`
	GreedyM       int    `json:"greedyM,omitempty"`
	GreedyK       int    `json:"greedyK,omitempty"`
	SkipReports   bool   `json:"skipReports,omitempty"`
	// Parallelism is the session's evaluation concurrency (0 = the server
	// default, GOMAXPROCS). The server-wide budget (dtaserver
	// -max-parallelism) caps it. Recommendations do not depend on it.
	Parallelism int `json:"parallelism,omitempty"`
	// Derive selects the cost-derivation layer's mode: "on" answers every
	// cost-cache miss, SELECT and DML alike, by replaying one plan skeleton
	// per event
	// (recommendations unchanged, far fewer optimizer calls), "verify"
	// additionally cross-checks every derived cost against a real call.
	// Empty defers to the server default (dtaserver -derive, itself on
	// unless set to verify).
	Derive string `json:"derive,omitempty"`
	// FaultSpec, when non-empty, attaches a session-scoped deterministic
	// fault injector (grammar "seed=N;site:kind:prob[:duration];...", see
	// internal/fault) — the chaos-testing knob. Sites: whatif, stats,
	// import.
	FaultSpec string `json:"faultSpec,omitempty"`
	// RetryAttempts overrides the per-call retry budget of the session's
	// backoff policy (0 = the default, 4 attempts).
	RetryAttempts int `json:"retryAttempts,omitempty"`
}

// CreateRequest is the JSON body of POST /sessions.
type CreateRequest struct {
	Database   string               `json:"database,omitempty"`
	Statements []workload.Statement `json:"statements,omitempty"`
	Options    CreateOptions        `json:"options"`
}

func (c CreateRequest) toRequest() (Request, error) {
	req := Request{Backend: c.Database}
	if len(c.Statements) > 0 {
		w, err := workload.FromStatements(c.Statements)
		if err != nil {
			return req, err
		}
		req.Workload = w
	}
	opts, err := c.Options.toCore()
	if err != nil {
		return req, err
	}
	req.Options = opts
	return req, nil
}

// toCore maps the wire options onto core.Options. It is also the resume
// path's deserializer: a persisted session's options go through exactly this
// mapping again, so a resumed session tunes under the options it was
// created with.
func (c CreateOptions) toCore() (core.Options, error) {
	mask, err := xmlio.FeatureMaskFromString(c.Features)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		Features:      mask,
		StorageBudget: c.StorageMB << 20,
		Aligned:       c.Aligned,
		NoCompression: c.NoCompression,
		AllowDrops:    c.AllowDrops,
		EvaluateOnly:  c.EvaluateOnly,
		GreedyM:       c.GreedyM,
		GreedyK:       c.GreedyK,
		SkipReports:   c.SkipReports,
		Parallelism:   c.Parallelism,
	}
	if c.TimeLimit != "" {
		d, err := time.ParseDuration(c.TimeLimit)
		if err != nil {
			return core.Options{}, fmt.Errorf("bad timeLimit: %w", err)
		}
		opts.TimeLimit = d
	}
	if c.Derive != "" {
		mode, err := derive.ParseMode(c.Derive)
		if err != nil {
			return core.Options{}, fmt.Errorf("bad derive: %w", err)
		}
		opts.Derive = mode
	}
	if c.FaultSpec != "" {
		spec, err := fault.ParseSpec(c.FaultSpec)
		if err != nil {
			return core.Options{}, fmt.Errorf("bad faultSpec: %w", err)
		}
		opts.Faults = fault.NewInjector(spec)
	}
	if c.RetryAttempts < 0 {
		return core.Options{}, fmt.Errorf("bad retryAttempts: %d", c.RetryAttempts)
	}
	opts.Retry.MaxAttempts = c.RetryAttempts
	return opts, nil
}

// Handler returns the service's HTTP API:
//
//	POST   /sessions             create a tuning session (JSON or DTAXML body)
//	POST   /sessions/trace       create a session from a raw trace streamed as the body
//	POST   /sessions/resume      resume checkpointed sessions from the state dir
//	GET    /sessions             list sessions
//	GET    /sessions/{id}        one session's snapshot
//	GET    /sessions/{id}/events stream progress events (NDJSON)
//	GET    /sessions/{id}/trace  session timeline as Chrome trace-event JSON
//	GET    /sessions/{id}/journal decision journal as NDJSON (?kind= filters)
//	GET    /sessions/{id}/explain per-structure provenance from the journal
//	PATCH  /sessions/{id}        revise a completed session under changed constraints
//	DELETE /sessions/{id}        cancel a session
//	POST   /daemons              create a continuous tuning daemon
//	POST   /daemons/resume       restore persisted daemons from the state dir
//	GET    /daemons              list daemons
//	GET    /daemons/{id}         one daemon's snapshot
//	POST   /daemons/{id}/trace   ingest one trace chunk (epoch); re-tunes on drift
//	GET    /daemons/{id}/delta   recommendation deltas (?since=N for only new ones)
//	POST   /daemons/{id}/feedback accept/veto structures; optional forced re-tune
//	GET    /daemons/{id}/events  stream daemon events (NDJSON)
//	GET    /daemons/{id}/journal decision journal as NDJSON (?kind= filters)
//	GET    /daemons/{id}/explain why the latest delta was proposed
//	GET    /daemons/{id}/timeline daemon timeline as Chrome trace-event JSON
//	DELETE /daemons/{id}         close a daemon
//	GET    /metrics              Prometheus text exposition (JSON with Accept: application/json)
//	GET    /metrics.json         cumulative service metrics, JSON
//	GET    /backends             registered databases
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", m.handleCreate)
	mux.HandleFunc("POST /sessions/trace", m.handleCreateTrace)
	mux.HandleFunc("POST /sessions/resume", m.handleResume)
	mux.HandleFunc("GET /sessions", m.handleList)
	mux.HandleFunc("GET /sessions/{id}", m.handleGet)
	mux.HandleFunc("GET /sessions/{id}/events", m.handleEvents)
	mux.HandleFunc("GET /sessions/{id}/trace", m.handleTrace)
	mux.HandleFunc("GET /sessions/{id}/journal", m.handleJournal)
	mux.HandleFunc("GET /sessions/{id}/explain", m.handleExplain)
	mux.HandleFunc("PATCH /sessions/{id}", m.handleRevise)
	mux.HandleFunc("DELETE /sessions/{id}", m.handleCancel)
	m.daemonRoutes(mux)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /metrics.json", m.handleMetricsJSON)
	mux.HandleFunc("GET /backends", m.handleBackends)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeCreate accepts the native JSON body or a DTAXML document (the
// shipped tool's session definition format), detected by Content-Type.
func decodeCreate(r *http.Request) (Request, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && strings.Contains(mt, "xml") {
		doc, err := xmlio.Decode(r.Body)
		if err != nil {
			return Request{}, err
		}
		opts, w, err := xmlio.DecodeInput(doc.Input)
		if err != nil {
			return Request{}, err
		}
		req := Request{Options: opts, Workload: w}
		if len(doc.Input.Databases) > 0 {
			req.Backend = doc.Input.Databases[0]
		}
		return req, nil
	}
	var body CreateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return Request{}, fmt.Errorf("bad request body: %w", err)
	}
	return body.toRequest()
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCreate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s, err := m.Create(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/sessions/"+s.ID())
	writeJSON(w, http.StatusCreated, s.Snapshot())
}

// handleCreateTrace is POST /sessions/trace: the request body is a raw
// profiler trace in the workload.ReadTrace line format, streamed straight
// into the session's online compressor without ever being buffered whole.
// Because the body is the trace, the session parameters travel as query
// parameters instead: ?database=<backend> names the backend and
// ?options=<JSON CreateOptions> carries the tuning options. Progress during
// ingestion is published on the session's event stream (phase "ingest"). A
// malformed trace fails with 400 and a line-numbered error; the failed
// session remains visible in the session list.
func (m *Manager) handleCreateTrace(w http.ResponseWriter, r *http.Request) {
	var copts CreateOptions
	if o := r.URL.Query().Get("options"); o != "" {
		dec := json.NewDecoder(strings.NewReader(o))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&copts); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad options: %w", err))
			return
		}
	}
	opts, err := copts.toCore()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := Request{Backend: r.URL.Query().Get("database"), Options: opts}
	s, err := m.CreateStreaming(req, r.Body)
	if err != nil {
		if s != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error(), "session": s.ID()})
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/sessions/"+s.ID())
	writeJSON(w, http.StatusCreated, s.Snapshot())
}

// handleResume replays the state directory: every persisted session that is
// not already live is recreated from its manifest and warm-started from its
// last checkpoint. dtaserver calls the same ResumeSessions at startup; the
// endpoint exists for operators who attach a state directory to a running
// server or repair one by hand.
func (m *Manager) handleResume(w http.ResponseWriter, r *http.Request) {
	resumed, err := m.ResumeSessions()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"resumed": snapshots(resumed)})
}

// snapshots renders sessions or daemons as their JSON views.
func snapshots[T interface{ Snapshot() S }, S any](items []T) []S {
	out := make([]S, len(items))
	for i, it := range items {
		out[i] = it.Snapshot()
	}
	return out
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, snapshots(m.Sessions()))
}

func (m *Manager) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	s, ok := m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
	}
	return s, ok
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	if s, ok := m.session(w, r); ok {
		writeJSON(w, http.StatusOK, s.Snapshot())
	}
}

// handleEvents streams the session's progress events as NDJSON: the history
// first, then live events until the session terminates or the client goes
// away. The final line is always the terminal snapshot.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	hist, live, unsub := s.Subscribe()
	defer unsub()
	streamNDJSON(w, r, hist, live, func() any { return s.Snapshot() })
}

// handleRevise is PATCH /sessions/{id}: create a child session that
// replays the completed session's retained costed pool under the
// constraint changes in the body (ReviseRequest; absent fields inherit the
// parent's constraints). Only the search layer re-runs — the response is
// the child's snapshot (201, Location header), whose lineage is in
// revisedFrom. A session that is not done, or whose pool retention
// expired, is a 409; an unresolvable pin key or malformed body is a 400.
func (m *Manager) handleRevise(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	var body ReviseRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	child, err := m.Revise(s.ID(), body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errNotRevisable) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Location", "/sessions/"+child.ID())
	writeJSON(w, http.StatusCreated, child.Snapshot())
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	s.Cancel()
	// Give the session a moment to settle so the response usually reflects
	// the terminal state; cancellation itself is already delivered.
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	_ = s.Wait(ctx)
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleTrace serves the session's span timeline as Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. A running
// session's trace is served as-is — only completed spans appear.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s, ok := m.session(w, r); ok {
		serveTrace(w, s.Trace())
	}
}

// serveTrace writes a session's or a daemon's span timeline as a
// downloadable Chrome trace-event document named after its owner.
func serveTrace(w http.ResponseWriter, t *obs.Trace) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+t.Name()+`-trace.json"`)
	w.WriteHeader(http.StatusOK)
	t.WriteChromeTrace(w)
}

// handleJournal serves the session's decision journal as NDJSON, one typed
// event per line in sequence order. ?kind=candidate,greedy-step narrows the
// stream to the listed event kinds; an unknown kind is a 400. A running
// session's journal is served as-is — only events emitted so far appear.
func (m *Manager) handleJournal(w http.ResponseWriter, r *http.Request) {
	if s, ok := m.session(w, r); ok {
		serveJournal(w, r, s.Journal())
	}
}

// serveJournal writes a session's or a daemon's decision journal as NDJSON,
// narrowed by ?kind= when present.
func serveJournal(w http.ResponseWriter, r *http.Request, j *journal.Journal) {
	var filter map[journal.Kind]bool
	if q := r.URL.Query().Get("kind"); q != "" {
		f, err := journal.ParseKinds(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		filter = f
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	j.WriteNDJSON(w, filter)
}

// handleExplain reconstructs per-recommended-structure provenance — the
// greedy decision that admitted each structure, the alternatives it beat,
// and the queries it benefits — purely from the session's decision journal.
// It requires a terminal session with a recommendation (409 otherwise).
func (m *Manager) handleExplain(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	if !s.State().Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("session %s is %s; explain requires a terminal session", s.ID(), s.State()))
		return
	}
	rec, err := s.Result()
	if rec == nil {
		if err == nil {
			err = fmt.Errorf("session %s has no recommendation", s.ID())
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	keys := make([]string, 0, len(rec.NewStructures))
	for _, st := range rec.NewStructures {
		keys = append(keys, st.Key())
	}
	exp := journal.Explain(s.Journal().Events(), keys)
	exp.Session = s.ID()
	exp.DroppedEvents = s.Journal().DroppedByKind()
	writeJSON(w, http.StatusOK, exp)
}

// handleMetrics serves the Prometheus text exposition format by default
// (what a Prometheus scraper or plain curl gets); clients that send
// Accept: application/json get the JSON snapshot instead, same as
// GET /metrics.json.
func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if accepts(r, "application/json") {
		m.handleMetricsJSON(w, r)
		return
	}
	// The live-session counts and per-backend call totals are computed on
	// demand, not counted; set their gauges so one scrape carries everything.
	snap := m.Metrics()
	m.gPending.Set(float64(snap.SessionsPending))
	m.gRunning.Set(float64(snap.SessionsRunning))
	for _, b := range snap.Backends {
		m.reg.Gauge("dta_backend_whatif_calls",
			"Cumulative what-if optimizer calls absorbed by the backend's server, including still-running sessions.",
			"backend", b.Name).Set(float64(b.WhatIfCalls))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	m.reg.WritePrometheus(w)
}

// accepts reports whether the request's Accept header mentions the media
// type (a lightweight check, not full content negotiation — the two
// supported representations cannot both be asked for sensibly).
func accepts(r *http.Request, mediaType string) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == mediaType {
			return true
		}
	}
	return false
}

func (m *Manager) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Metrics())
}

func (m *Manager) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"backends": m.Backends()})
}
