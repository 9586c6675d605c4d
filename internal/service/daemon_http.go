package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/journal"
)

// daemonRoutes adds the continuous-tuning endpoints to the service mux;
// Handler calls it so the daemon API ships with the session API.
func (m *Manager) daemonRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /daemons", m.handleDaemonCreate)
	mux.HandleFunc("POST /daemons/resume", m.handleDaemonResume)
	mux.HandleFunc("GET /daemons", m.handleDaemonList)
	mux.HandleFunc("GET /daemons/{id}", m.handleDaemonGet)
	mux.HandleFunc("POST /daemons/{id}/trace", m.handleDaemonTrace)
	mux.HandleFunc("GET /daemons/{id}/delta", m.handleDaemonDelta)
	mux.HandleFunc("POST /daemons/{id}/feedback", m.handleDaemonFeedback)
	mux.HandleFunc("GET /daemons/{id}/events", m.handleDaemonEvents)
	mux.HandleFunc("GET /daemons/{id}/journal", m.handleDaemonJournal)
	mux.HandleFunc("GET /daemons/{id}/explain", m.handleDaemonExplain)
	mux.HandleFunc("GET /daemons/{id}/timeline", m.handleDaemonTimeline)
	mux.HandleFunc("DELETE /daemons/{id}", m.handleDaemonClose)
}

func (m *Manager) handleDaemonCreate(w http.ResponseWriter, r *http.Request) {
	var body DaemonRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	d, err := m.CreateDaemon(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/daemons/"+d.ID())
	writeJSON(w, http.StatusCreated, d.Snapshot())
}

// handleDaemonResume replays the state directory's daemon files, restoring
// every persisted daemon that is not already live — the endpoint twin of
// the ResumeDaemons call dtaserver makes at startup.
func (m *Manager) handleDaemonResume(w http.ResponseWriter, r *http.Request) {
	resumed, err := m.ResumeDaemons()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"resumed": snapshots(resumed)})
}

func (m *Manager) handleDaemonList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, snapshots(m.Daemons()))
}

func (m *Manager) daemon(w http.ResponseWriter, r *http.Request) (*Daemon, bool) {
	id := r.PathValue("id")
	d, ok := m.GetDaemon(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no daemon %q", id))
	}
	return d, ok
}

func (m *Manager) handleDaemonGet(w http.ResponseWriter, r *http.Request) {
	if d, ok := m.daemon(w, r); ok {
		writeJSON(w, http.StatusOK, d.Snapshot())
	}
}

// handleDaemonTrace is POST /daemons/{id}/trace: the body is one trace
// chunk in the workload.ReadTrace line format, streamed straight into the
// daemon's compressor. The response is the epoch result — the drift score
// this chunk left the daemon at and, when a re-tune was triggered, the
// delta it emitted. The call is synchronous: a triggered re-tune runs (and
// may queue behind the worker limit) before the response is written, so
// the caller always observes the daemon's post-epoch state.
func (m *Manager) handleDaemonTrace(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	res, err := m.IngestTrace(r.Context(), d.ID(), r.Body)
	if err != nil {
		writeError(w, daemonStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// daemonStatus maps an IngestTrace or Feedback error to its HTTP status: a
// re-tune that ran and failed is the server's fault (500), a forced re-tune
// with nothing ingested yet is a conflict with the daemon's state (409),
// and everything else — a malformed trace, an unresolvable key, a closed
// daemon — is the request's (400).
func daemonStatus(err error) int {
	switch {
	case errors.Is(err, errRetune):
		return http.StatusInternalServerError
	case errors.Is(err, errNothingToRetune):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// handleDaemonDelta is GET /daemons/{id}/delta: the daemon's recommendation
// deltas, oldest first. ?since=N skips deltas with seq ≤ N, so a DBA
// applying deltas can poll for only what is new.
func (m *Manager) handleDaemonDelta(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad since %q", q))
			return
		}
		since = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"daemon": d.ID(),
		"deltas": d.Deltas(since),
	})
}

func (m *Manager) handleDaemonFeedback(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	var body FeedbackRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(body.Accept) == 0 && len(body.Veto) == 0 && !body.Retune {
		writeError(w, http.StatusBadRequest, fmt.Errorf("feedback names no structures and requests no re-tune"))
		return
	}
	res, err := m.Feedback(r.Context(), d.ID(), body)
	if err != nil {
		writeError(w, daemonStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleDaemonEvents streams the daemon's event log as NDJSON: history
// first, then live events until the daemon is closed or the client goes
// away. Unlike a session stream it has no natural end — a daemon is
// long-lived by design.
func (m *Manager) handleDaemonEvents(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	hist, live, unsub := d.Subscribe()
	defer unsub()
	streamNDJSON(w, r, hist, live, nil)
}

// handleDaemonJournal serves the daemon's decision journal as NDJSON —
// the drift/delta/feedback events plus the tuning pipeline's own decision
// events for every re-tune. ?kind= filters as on the session endpoint
// (the daemon kinds are drift, delta, feedback).
func (m *Manager) handleDaemonJournal(w http.ResponseWriter, r *http.Request) {
	if d, ok := m.daemon(w, r); ok {
		serveJournal(w, r, d.Journal())
	}
}

// daemonExplanation is the GET /daemons/{id}/explain response: why the
// latest delta was proposed (its trigger, path, and drift score) plus
// per-structure provenance for the outstanding proposal, reconstructed
// from the daemon's decision journal exactly as session explain is.
type daemonExplanation struct {
	Daemon string `json:"daemon"`
	// LastDelta is the most recent delta with the drift context that
	// triggered it; nil before the first re-tune.
	LastDelta *Delta `json:"lastDelta,omitempty"`
	// Explain is the per-structure provenance of the outstanding proposal.
	Explain *journal.Explanation `json:"explain"`
}

func (m *Manager) handleDaemonExplain(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	snap := d.Snapshot()
	if snap.Deltas == 0 {
		writeError(w, http.StatusConflict, fmt.Errorf("daemon %s has not re-tuned yet; explain requires at least one delta", d.ID()))
		return
	}
	keys := make([]string, 0, len(snap.Proposed))
	for _, e := range snap.Proposed {
		keys = append(keys, e.Key)
	}
	exp := journal.Explain(d.Journal().Events(), keys)
	exp.Session = d.ID()
	exp.DroppedEvents = d.Journal().DroppedByKind()
	out := daemonExplanation{Daemon: d.ID(), Explain: exp}
	if all := d.Deltas(0); len(all) > 0 {
		out.LastDelta = &all[len(all)-1]
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDaemonTimeline serves the daemon's span timeline as Chrome
// trace-event JSON, covering every re-tune the daemon has run. (Named
// /timeline rather than the sessions' /trace because POST …/trace is the
// daemon's trace-ingest endpoint.)
func (m *Manager) handleDaemonTimeline(w http.ResponseWriter, r *http.Request) {
	if d, ok := m.daemon(w, r); ok {
		serveTrace(w, d.Trace())
	}
}

func (m *Manager) handleDaemonClose(w http.ResponseWriter, r *http.Request) {
	d, ok := m.daemon(w, r)
	if !ok {
		return
	}
	if _, err := m.CloseDaemon(d.ID()); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, d.Snapshot())
}
