// Package service implements the long-lived tuning service the paper's §2.1
// frames DTA as: a server-side advisor DBAs invoke against named databases
// under explicit time budgets. A Manager runs many tuning sessions
// concurrently — one goroutine each, bounded by a worker limit — with
// per-session lifecycle state, live progress snapshots streamed from
// core.TuneContext's Progress callback, context-based cancellation that
// yields the best-so-far recommendation (anytime behaviour), and cumulative
// service metrics. The HTTP front end lives in http.go; cmd/dtaserver binds
// it to a listener.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/workload"
)

// State is a session's lifecycle state.
type State string

// Session lifecycle: pending (queued for a worker slot) → running →
// done | cancelled | failed. A cancelled session that got past baseline
// costing still carries a partial recommendation.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Backend is one tunable database server registered with the manager. The
// Tuner is shared by every session on the backend, which is why the what-if
// layer's accounting and statistics store are concurrency-safe.
type Backend struct {
	Name  string
	Tuner core.Tuner
	// DefaultWorkload serves sessions that do not supply statements.
	DefaultWorkload *workload.Workload
	// BaseConfig is the backend's existing physical design (constraint
	// indexes etc.); sessions inherit it unless they specify their own.
	BaseConfig *catalog.Configuration
}

// Request describes one tuning session.
type Request struct {
	// Backend names the registered backend; may be empty when exactly one
	// backend is registered.
	Backend  string
	Workload *workload.Workload // nil = backend's default workload
	Options  core.Options
}

// Event is one progress notification of a session: the state and progress
// snapshot at one moment, sequence-numbered per session.
type Event struct {
	Seq      int           `json:"seq"`
	State    State         `json:"state"`
	Progress core.Progress `json:"progress"`
}

// tuned is what a session and a daemon have in common: an identity, the
// backend they tune, and the two live, bounded records their jobs write.
type tuned struct {
	// class is "session" or "daemon": the span category of the owner's jobs
	// and the attribute its ID is logged under.
	class, id, backend string
	created            time.Time
	// trace collects the span timeline (root → phase → query → greedy step
	// → what-if call; a daemon's spans all its re-tunes); exported as Chrome
	// trace-event JSON at GET /sessions/{id}/trace and /daemons/{id}/timeline.
	trace *obs.Trace
	// journal collects the decision events (candidate accept/reject, greedy
	// seed/steps, merges, drops, derive fallbacks, retry/breaker transitions
	// and, for a daemon, every drift evaluation, delta and feedback
	// decision); streamed at GET …/journal and reconstructed into provenance
	// at GET …/explain.
	journal *journal.Journal
}

func newTuned(class, id, backend string, reg *obs.Registry) tuned {
	t := tuned{class: class, id: id, backend: backend, created: time.Now(),
		trace: obs.NewTrace(id), journal: journal.New(id)}
	t.journal.AttachMetrics(reg)
	return t
}

// ID returns the session or daemon identifier.
func (t *tuned) ID() string { return t.id }

// Backend returns the backend the session or daemon tunes.
func (t *tuned) Backend() string { return t.backend }

// Trace returns the span timeline. It is live: it grows as spans complete,
// and exporting it at any time is safe.
func (t *tuned) Trace() *obs.Trace { return t.trace }

// Journal returns the decision journal. Like the trace it is live and
// bounded; exporting it at any time is safe. It is derived state: a resumed
// session deterministically regenerates its decision events rather than
// restoring them from the checkpoint.
func (t *tuned) Journal() *journal.Journal { return t.journal }

// Session is one tuning run managed by the service.
type Session struct {
	tuned
	// revisedFrom is the parent session ID for sessions created by
	// PATCH /sessions/{id} (""= fresh session). Set before the session is
	// published and immutable afterwards.
	revisedFrom string

	cancel context.CancelFunc
	done   chan struct{}
	// events is the session's progress log and subscriber fan-out; it is
	// published to under mu, which is what orders Seq.
	events hub[Event]

	mu       sync.Mutex
	state    State
	seq      int
	progress core.Progress
	started  time.Time
	finished time.Time
	rec      *core.Recommendation
	err      error
	// cons is the search-layer constraint set the session ran under; a
	// revision inherits it field-by-field unless the PATCH body overrides.
	cons core.Constraints
	// pool is the costed pool retained after a successful completion, the
	// input of session revision; nil until then and again after the
	// retention TTL expires. poolExpiry is the armed TTL timer (nil without
	// a TTL); poolGen guards a timer that already fired against clearing a
	// pool retained later.
	pool       *core.CostedPool
	poolGen    int
	poolExpiry *time.Timer
	// revisions lists child sessions created by revising this one.
	revisions []string
}

// Pool returns the session's retained costed pool: nil while the session
// runs, set after a successful completion, nil again once the pool
// retention TTL expires.
func (s *Session) Pool() *core.CostedPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Progress returns the latest progress snapshot.
func (s *Session) Progress() core.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progress
}

// Result returns the recommendation and error once the session is terminal.
// A cancelled session may carry both a partial recommendation and no error.
func (s *Session) Result() (*core.Recommendation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec, s.err
}

// Done is closed when the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session is terminal or ctx expires.
func (s *Session) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: a pending session terminates immediately, a
// running one stops within one what-if optimizer call and keeps its
// best-so-far recommendation.
func (s *Session) Cancel() { s.cancel() }

// Subscribe registers a live event subscriber. It returns the event history
// so far (for replay), a channel of subsequent events that is closed when
// the session terminates, and an unsubscribe function. Slow subscribers
// lose intermediate snapshots rather than stalling the tuning goroutine.
func (s *Session) Subscribe() ([]Event, <-chan Event, func()) { return s.events.subscribe() }

// publishLocked publishes the current state and progress as the session's
// next event; the caller holds s.mu.
func (s *Session) publishLocked() {
	s.seq++
	s.events.publish(Event{Seq: s.seq, State: s.state, Progress: s.progress})
}

// onProgress is the core Progress callback: it runs on the tuning goroutine
// and snapshots progress under the session lock.
func (s *Session) onProgress(p core.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progress = p
	s.publishLocked()
}

func (s *Session) setRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateRunning
	s.started = time.Now()
	s.publishLocked()
}

// finish transitions to the outcome's terminal state, publishes the final
// event, and closes every subscriber channel.
func (s *Session) finish(out outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = out.state
	s.rec = out.rec
	s.err = out.err
	s.finished = time.Now()
	if out.rec != nil {
		s.progress.BestImprovement = out.rec.Improvement
		s.progress.WhatIfCalls = out.rec.WhatIfCalls
	}
	s.progress.Phase = core.PhaseDone
	s.publishLocked()
	s.events.close()
	close(s.done)
}

// Snapshot is the JSON-friendly view of a session.
type Snapshot struct {
	ID       string        `json:"id"`
	Backend  string        `json:"backend"`
	State    State         `json:"state"`
	Created  time.Time     `json:"created"`
	Started  *time.Time    `json:"started,omitempty"`
	Finished *time.Time    `json:"finished,omitempty"`
	Progress core.Progress `json:"progress"`
	Error    string        `json:"error,omitempty"`
	Result   *Result       `json:"result,omitempty"`
	// RevisedFrom is the parent session for revision sessions.
	RevisedFrom string `json:"revisedFrom,omitempty"`
	// Revisions lists child sessions created by revising this one.
	Revisions []string `json:"revisions,omitempty"`
	// PoolFingerprint is the content address of the session's retained
	// costed pool; present exactly while the session is revisable.
	PoolFingerprint string `json:"poolFingerprint,omitempty"`
}

// Result summarizes a terminal session's recommendation.
type Result struct {
	Improvement  float64 `json:"improvement"`
	BaseCost     float64 `json:"baseCost"`
	Cost         float64 `json:"cost"`
	StorageMB    float64 `json:"storageMB"`
	EventsTuned  int     `json:"eventsTuned"`
	WhatIfCalls  int64   `json:"whatIfCalls"`
	DerivedEvals int64   `json:"derivedEvals,omitempty"`
	// DeriveFallbacks counts the real optimizer calls behind cost
	// derivation — the plan skeletons fetched — by event shape ("atom",
	// "atom-join"; see core.Recommendation.DeriveFallbacks).
	DeriveFallbacks map[string]int64 `json:"deriveFallbacks,omitempty"`
	StatsCreated    int              `json:"statsCreated"`
	DurationMS      int64            `json:"durationMS"`
	StopReason      string           `json:"stopReason,omitempty"`
	Structures      []string         `json:"structures,omitempty"`
	Dropped         []string         `json:"dropped,omitempty"`
	// IngestedEvents is the raw-trace event count absorbed by streaming
	// ingestion (zero for sessions not created from a streamed trace).
	IngestedEvents int64 `json:"ingestedEvents,omitempty"`
}

// Snapshot captures the session's current state for reporting.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Snapshot{
		ID:          s.id,
		Backend:     s.backend,
		State:       s.state,
		Created:     s.created,
		Progress:    s.progress,
		RevisedFrom: s.revisedFrom,
		Revisions:   append([]string(nil), s.revisions...),
	}
	if s.pool != nil {
		out.PoolFingerprint = s.pool.Fingerprint
	}
	if !s.started.IsZero() {
		t := s.started
		out.Started = &t
	}
	if !s.finished.IsZero() {
		t := s.finished
		out.Finished = &t
	}
	if s.err != nil {
		out.Error = s.err.Error()
	}
	if s.rec != nil {
		r := &Result{
			Improvement:     s.rec.Improvement,
			BaseCost:        s.rec.BaseCost,
			Cost:            s.rec.Cost,
			StorageMB:       float64(s.rec.StorageBytes) / (1 << 20),
			EventsTuned:     s.rec.EventsTuned,
			WhatIfCalls:     s.rec.WhatIfCalls,
			DerivedEvals:    s.rec.DerivedEvals,
			DeriveFallbacks: s.rec.DeriveFallbacks,
			StatsCreated:    s.rec.StatsCreated,
			DurationMS:      s.rec.Duration.Milliseconds(),
			StopReason:      s.rec.StopReason,
			IngestedEvents:  s.rec.IngestedEvents,
		}
		for _, st := range s.rec.NewStructures {
			r.Structures = append(r.Structures, "CREATE "+st.String())
		}
		for _, st := range s.rec.DroppedStructures {
			r.Dropped = append(r.Dropped, "DROP "+st.String())
		}
		out.Result = r
	}
	return out
}

// MetricsSetter is implemented by tuners that can observe into a shared
// metrics registry (whatif.Server, testsrv.Session). Register attaches the
// manager's registry to every backend whose tuner implements it.
type MetricsSetter interface {
	SetMetrics(*obs.Registry)
}

// Manager runs tuning sessions over registered backends.
type Manager struct {
	sem chan struct{}

	// parCap, when positive, is the server-wide per-session parallelism
	// budget: sessions asking for more (or for the default) are clamped to
	// it, so one greedy client cannot monopolize the box's cores.
	parCap int

	// deriveDefault is the cost-derivation mode applied to sessions whose
	// request leaves options.derive empty (dtaserver -derive).
	deriveDefault derive.Mode

	// driftDefault is the drift threshold applied to daemons whose request
	// leaves drift.threshold zero (dtaserver -drift-threshold, initially
	// DefaultDriftThreshold).
	driftDefault float64

	// poolTTL bounds how long a completed session's costed pool is retained
	// for revision (dtaserver -pool-retention; 0 = the life of the process).
	poolTTL time.Duration

	// reg is the observability registry shared by the service, every
	// backend's what-if server, and every session's tuning pipeline; exposed
	// as Prometheus text at GET /metrics.
	reg *obs.Registry
	log *slog.Logger

	mu       sync.Mutex
	backends map[string]*Backend
	// sessions (s-NNNN) and continuous tuning daemons (d-NNNN, daemon.go),
	// each in creation order.
	sessions directory[*Session]
	daemons  directory[*Daemon]
	// stateDir, when set via SetStateDir, holds the JSON state files of
	// in-flight sessions, retained pools and daemons; see state.go.
	// stateWrites counts the state files written.
	stateDir    string
	stateWrites atomic.Int64

	// Lifecycle series, cached at construction so the job runner never takes
	// registry locks. They are the only lifecycle counters: Metrics() (the
	// /metrics.json view) reads its numbers back from them.
	cCreated  *obs.Counter
	cFinished map[State]*obs.Counter
	cCalls    *obs.Counter
	hDuration *obs.Histogram
	hCalls    *obs.Histogram
	hImprove  *obs.Histogram
	gPending  *obs.Gauge
	gRunning  *obs.Gauge
	// gBreaker counts sessions whose circuit breaker is currently open
	// (running in — or finished after — degraded mode, not yet terminal).
	gBreaker *obs.Gauge
	// Streaming-ingest series (see CreateStreaming): cumulative raw events
	// and bytes through the online compressors, plus per-trace template
	// counts and compression ratios.
	cIngestEvents *obs.Counter
	cIngestBytes  *obs.Counter
	hTemplates    *obs.Histogram
	hRatio        *obs.Histogram
	// Revision series (see Revise): sessions created through
	// PATCH /sessions/{id}, the search-only what-if calls they issued, their
	// wall time, and the pools currently retained to serve them.
	cRevSessions *obs.Counter
	cRevCalls    *obs.Counter
	hRevDuration *obs.Histogram
	gPools       *obs.Gauge
	// Daemon series (daemon.go): daemons created, re-tunes by trigger, and
	// the per-delta churn distribution. The per-daemon dta_drift_score
	// gauge is registered when each daemon is created.
	cDaemons *obs.Counter
	cRetunes map[string]*obs.Counter
	hChurn   *obs.Histogram
}

// NewManager creates a manager running at most workers sessions at once
// (workers ≤ 0 means 4, the shipped DTA's default degree of parallelism for
// its own server work).
func NewManager(workers int) *Manager {
	if workers <= 0 {
		workers = 4
	}
	reg := obs.NewRegistry()
	m := &Manager{
		sem:          make(chan struct{}, workers),
		reg:          reg,
		driftDefault: DefaultDriftThreshold,
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		backends:     map[string]*Backend{},
		sessions:     directory[*Session]{kind: "session", prefix: "s", byID: map[string]*Session{}},
		daemons:      directory[*Daemon]{kind: "daemon", prefix: "d", byID: map[string]*Daemon{}},
		cCreated:     reg.Counter("dta_sessions_created_total", "Tuning sessions created."),
		cFinished:    map[State]*obs.Counter{},
		cCalls: reg.Counter("dta_session_whatif_calls_total",
			"Session-exact what-if calls of finished sessions (matches the JSON metrics' whatIfCalls)."),
		hDuration: reg.Histogram("dta_session_duration_seconds",
			"Wall time of finished tuning sessions.", obs.LatencyBuckets),
		hCalls: reg.Histogram("dta_session_whatif_calls",
			"What-if calls per finished session.", obs.ExpBuckets(8, 2, 16)),
		hImprove: reg.Histogram("dta_session_improvement",
			"Workload cost improvement per finished session (0..1).", obs.LinearBuckets(0.1, 0.1, 10)),
		gPending: reg.Gauge("dta_sessions", "Live sessions by state.", "state", string(StatePending)),
		gRunning: reg.Gauge("dta_sessions", "Live sessions by state.", "state", string(StateRunning)),
		gBreaker: reg.Gauge("dta_breaker_state",
			"Live sessions whose circuit breaker is open (degraded mode); 0 = every live session healthy."),
		cIngestEvents: reg.Counter("dta_ingest_events_total",
			"Raw trace events folded into streaming-ingest session compressors."),
		cIngestBytes: reg.Counter("dta_ingest_bytes_total",
			"Trace bytes consumed by streaming session ingestion."),
		hTemplates: reg.Histogram("dta_compress_templates",
			"Distinct statement templates observed per streamed trace.", obs.CountBuckets),
		hRatio: reg.Histogram("dta_compress_ratio",
			"Workload compression ratio (raw events per kept representative) per streamed trace.", obs.RatioBuckets),
		cRevSessions: reg.Counter("dta_revise_sessions_total",
			"Revision sessions created via PATCH /sessions/{id}."),
		cRevCalls: reg.Counter("dta_revise_whatif_calls_total",
			"What-if calls issued by finished revision sessions (search-layer pool misses only)."),
		hRevDuration: reg.Histogram("dta_revise_duration_seconds",
			"Wall time of finished revision sessions.", obs.LatencyBuckets),
		gPools: reg.Gauge("dta_pools_retained",
			"Costed pools currently retained in memory for session revision."),
		cDaemons: reg.Counter("dta_daemons_created_total",
			"Continuous tuning daemons created."),
		cRetunes: map[string]*obs.Counter{},
		hChurn: reg.Histogram("dta_delta_churn",
			"Structures created plus dropped per daemon recommendation delta.", obs.CountBuckets),
	}
	for _, st := range []State{StateDone, StateCancelled, StateFailed} {
		m.cFinished[st] = reg.Counter("dta_sessions_finished_total",
			"Tuning sessions finished, by terminal state.", "state", string(st))
	}
	for _, trigger := range []string{TriggerInitial, TriggerDrift, TriggerFeedback} {
		m.cRetunes[trigger] = reg.Counter("dta_daemon_retunes_total",
			"Daemon re-tunes, by trigger (initial, drift, feedback).", "trigger", trigger)
	}
	return m
}

// Registry returns the manager's shared metrics registry, for callers that
// want to add their own series or scrape it outside HTTP.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// SetParallelismCap bounds every session's core.Options.Parallelism at n
// (≤ 0 removes the cap). A session requesting the default (0, meaning
// GOMAXPROCS) is also clamped: with a cap set, no session exceeds it.
// Call before serving; the cap applies to sessions created afterwards.
func (m *Manager) SetParallelismCap(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		n = 0
	}
	m.parCap = n
}

// SetDeriveDefault sets the cost-derivation mode for sessions whose request
// does not choose one (options.derive empty; "" here means on). An explicit
// per-session "on"/"verify" always wins. Call before serving; the default applies
// to sessions created afterwards.
func (m *Manager) SetDeriveDefault(mode derive.Mode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deriveDefault = mode
}

// SetPoolRetention bounds how long a completed session keeps its costed
// pool available for revision (dtaserver -pool-retention). Zero — the
// default — retains pools for the life of the process. Call before
// serving; the TTL applies to pools retained afterwards.
func (m *Manager) SetPoolRetention(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d < 0 {
		d = 0
	}
	m.poolTTL = d
}

// retainPool keeps a completed session's costed pool for revision: in
// memory on the session (bounded by the retention TTL) and, with a state
// directory attached, as <id>.pool.json on disk — a file that outlives the
// session's own <id>.json, so pools survive session completion and server
// restarts.
func (m *Manager) retainPool(s *Session, p *core.CostedPool) {
	m.mu.Lock()
	ttl := m.poolTTL
	m.mu.Unlock()
	s.mu.Lock()
	had := s.pool != nil
	s.pool = p
	s.poolGen++
	gen := s.poolGen
	s.disarmPoolExpiry()
	if ttl > 0 {
		s.poolExpiry = time.AfterFunc(ttl, func() { m.expirePool(s, gen) })
	}
	s.mu.Unlock()
	if !had {
		m.gPools.Add(1)
	}
	if !m.linkParentPool(s, p) {
		m.writeStateFile(s.id, poolSuffix, p)
	}
}

// linkParentPool hard-links a revision's <id>.pool.json to its parent's
// when the revision kept the parent's pool object — it costed nothing new,
// so core.Revise handed back its input — instead of writing a byte-identical
// copy; each name outlives the other's removal. It reports whether the link
// was made: with persistence off, for another pool, or when the link fails
// (the parent's file expired, say), the caller writes the file.
func (m *Manager) linkParentPool(s *Session, p *core.CostedPool) bool {
	parent, ok := m.Get(s.revisedFrom)
	if !ok {
		return false
	}
	parent.mu.Lock()
	same := parent.pool == p
	parent.mu.Unlock()
	from, to := m.statePath(parent.id, poolSuffix), m.statePath(s.id, poolSuffix)
	return same && from != "" && os.Link(from, to) == nil
}

// disarmPoolExpiry stops the session's pending retention timer, if any; s.mu
// must be held. A stopped timer no longer references the session or its
// manager, so a shut-down manager — backends and their data included — can
// be collected without waiting out the TTL.
func (s *Session) disarmPoolExpiry() {
	if s.poolExpiry != nil {
		s.poolExpiry.Stop()
		s.poolExpiry = nil
	}
}

// expirePool drops a session's retained pool once its retention TTL runs
// out; the generation check keeps a stale timer from clearing a pool
// retained after it was armed.
func (m *Manager) expirePool(s *Session, gen int) {
	s.mu.Lock()
	expired := s.pool != nil && s.poolGen == gen
	if expired {
		s.pool = nil
	}
	s.mu.Unlock()
	if expired {
		m.gPools.Add(-1)
		m.removeStateFile(s.id, poolSuffix)
		m.log.Info("pool retention expired", "session", s.id)
	}
}

// SetLogger replaces the manager's logger (default: discard). Session
// lifecycle events are logged with the session ID as a structured attribute.
func (m *Manager) SetLogger(l *slog.Logger) {
	if l != nil {
		m.log = l
	}
}

// Register adds a tunable backend. A tuner that implements MetricsSetter is
// attached to the manager's shared registry, so the what-if load of every
// backend lands in one scrape.
func (m *Manager) Register(b *Backend) error {
	if b == nil || b.Name == "" || b.Tuner == nil {
		return fmt.Errorf("service: backend needs a name and a tuner")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.backends[b.Name]; dup {
		return fmt.Errorf("service: backend %q already registered", b.Name)
	}
	if ms, ok := b.Tuner.(MetricsSetter); ok {
		ms.SetMetrics(m.reg)
	}
	m.backends[b.Name] = b
	m.log.Info("backend registered", "backend", b.Name)
	return nil
}

// Backends lists registered backend names, sorted.
func (m *Manager) Backends() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.backends))
	for n := range m.backends {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// backend resolves a request's backend name.
func (m *Manager) backend(name string) (*Backend, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		if len(m.backends) == 1 {
			for _, b := range m.backends {
				return b, nil
			}
		}
		return nil, fmt.Errorf("service: request names no backend and %d are registered", len(m.backends))
	}
	b, ok := m.backends[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown backend %q", name)
	}
	return b, nil
}

// Create starts a tuning session for the request and returns it
// immediately; the session runs asynchronously, queued behind the worker
// limit.
func (m *Manager) Create(req Request) (*Session, error) {
	return m.create(req, "", nil)
}

// create is Create plus the resume path's extra inputs: a fixed session ID
// (empty = allocate the next sequence number) and a checkpoint to
// warm-start from (nil = fresh session).
func (m *Manager) create(req Request, id string, resume *core.Checkpoint) (*Session, error) {
	b, err := m.backend(req.Backend)
	if err != nil {
		return nil, err
	}
	w := req.Workload
	if w == nil {
		w = b.DefaultWorkload
	}
	if w == nil || w.Len() == 0 {
		return nil, fmt.Errorf("service: backend %q has no default workload and the request supplied none", b.Name)
	}
	opts := m.prepare(b, req.Options)
	opts.Resume = resume

	ctx, s, err := m.addSession(id, b.Name, "", opts.SearchConstraints())
	if err != nil {
		return nil, err
	}
	m.log.Info("session created", "session", s.id, "backend", b.Name, "events", w.Len())

	// Persist the manifest and hook up checkpointing when a state directory
	// is attached and the request survives the wire round trip. The wire
	// form is captured from the request's own options — before prepare
	// grafted the service-side defaults on — so resume rebuilds the session
	// through the same path a fresh create takes.
	if wire, ok := wireOptions(req.Options); ok && m.statePath(s.id, sessionSuffix) != "" {
		st := &sessionState{
			ID:         s.id,
			Backend:    req.Backend,
			Created:    s.created,
			Statements: wireStatements(req.Workload),
			Options:    wire,
		}
		m.writeStateFile(s.id, sessionSuffix, st)
		opts.CheckpointSink = func(ck *core.Checkpoint) {
			snap := *st
			snap.Checkpoint = ck
			m.writeStateFile(s.id, sessionSuffix, &snap)
		}
	}

	go m.run(ctx, s, b, w, opts)
	return s, nil
}

// addSession allocates, registers, and counts a new pending session, and
// returns the context its Cancel cancels. An empty id takes the next
// sequence number; a caller-supplied id (the resume path) must not collide
// with a live session. revisedFrom records revision lineage ("" for fresh
// sessions); cons is the search-layer constraint set the session runs under.
func (m *Manager) addSession(id, backend, revisedFrom string, cons core.Constraints) (context.Context, *Session, error) {
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	s, err := m.sessions.add(id, func(id string) *Session {
		return &Session{
			tuned:       newTuned("session", id, backend, m.reg),
			revisedFrom: revisedFrom,
			cancel:      cancel,
			done:        make(chan struct{}),
			state:       StatePending,
			cons:        cons,
		}
	})
	m.mu.Unlock()
	if err != nil {
		cancel()
		return nil, nil, err
	}
	m.cCreated.Inc()
	return ctx, s, nil
}

// job fills in what every session's job has in common: the "session <id>"
// root span, the pending → running transition, progress published on the
// event stream, and the sealed pool retained for revision. The caller
// supplies kind, args, opts and exec.
func (s *Session) job(m *Manager, j job) job {
	j.who, j.name = &s.tuned, "session "+s.id
	j.started = s.setRunning
	user, sink := j.opts.Progress, j.opts.PoolSink
	j.opts.Progress = func(p core.Progress) {
		s.onProgress(p)
		if user != nil {
			user(p)
		}
	}
	j.opts.PoolSink = func(p *core.CostedPool) {
		m.retainPool(s, p)
		if sink != nil {
			sink(p)
		}
	}
	return j
}

// run executes one fresh or resumed session through the job runner; what it
// adds is the state file, deleted once the session is terminal.
func (m *Manager) run(ctx context.Context, s *Session, b *Backend, w *workload.Workload, opts core.Options) {
	out := m.runJob(ctx, s.job(m, job{
		kind: "session",
		args: func(sp *obs.Span) { sp.SetString("backend", b.Name).SetInt("events", w.Len()) },
		opts: opts,
		exec: func(ctx context.Context, opts core.Options) (*core.Recommendation, error) {
			return core.TuneContext(ctx, b.Tuner, w, opts)
		},
	}))
	m.removeStateFile(s.id, sessionSuffix)
	s.finish(out)
}

// directory is the manager's ID-keyed, creation-ordered set of sessions or
// of daemons, with the sequence their "<prefix>-NNNN" IDs come from. It is
// guarded by Manager.mu.
type directory[T any] struct {
	kind, prefix string
	byID         map[string]T
	order        []string
	seq          int
}

// add registers mk(id) under the next sequence number, or — the resume path
// — under a caller-supplied id, which must not collide with a live entry;
// the sequence is kept ahead of it so fresh IDs never collide either.
func (d *directory[T]) add(id string, mk func(id string) T) (T, error) {
	if id == "" {
		d.seq++
		id = fmt.Sprintf("%s-%04d", d.prefix, d.seq)
	} else {
		if _, dup := d.byID[id]; dup {
			var none T
			return none, fmt.Errorf("service: %s %q already exists", d.kind, id)
		}
		var n int
		if _, err := fmt.Sscanf(id, d.prefix+"-%d", &n); err == nil && n > d.seq {
			d.seq = n
		}
	}
	v := mk(id)
	d.byID[id] = v
	d.order = append(d.order, id)
	return v, nil
}

// list returns every entry in creation order.
func (d *directory[T]) list() []T {
	out := make([]T, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.byID[id])
	}
	return out
}

// Get returns the session by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions.byID[id]
	return s, ok
}

// Sessions returns every session in creation order.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions.list()
}

// Cancel cancels the session by ID.
func (m *Manager) Cancel(id string) (*Session, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("service: no session %q", id)
	}
	s.Cancel()
	return s, nil
}

// BackendMetrics is the cumulative what-if load one backend has absorbed.
type BackendMetrics struct {
	Name        string `json:"name"`
	WhatIfCalls int64  `json:"whatIfCalls"`
}

// Metrics is the service-wide counter snapshot.
type Metrics struct {
	SessionsCreated   int64            `json:"sessionsCreated"`
	SessionsPending   int64            `json:"sessionsPending"`
	SessionsRunning   int64            `json:"sessionsRunning"`
	SessionsDone      int64            `json:"sessionsDone"`
	SessionsCancelled int64            `json:"sessionsCancelled"`
	SessionsFailed    int64            `json:"sessionsFailed"`
	SessionsRevised   int64            `json:"sessionsRevised"`
	PoolsRetained     int64            `json:"poolsRetained"`
	WhatIfCalls       int64            `json:"whatIfCalls"`
	DaemonsCreated    int64            `json:"daemonsCreated"`
	DaemonRetunes     int64            `json:"daemonRetunes"`
	DeltasEmitted     int64            `json:"deltasEmitted"`
	Backends          []BackendMetrics `json:"backends"`
}

// Metrics returns the cumulative service metrics, read back from the
// registry series the job runner and the daemons count into — so every
// field equals the corresponding Prometheus sample. SessionsDone/Cancelled/
// Failed and WhatIfCalls cover every finished job (sessions, revisions and
// daemon re-tunes); the per-backend counters are the shared servers' own
// cumulative totals (they also include calls of still-running sessions).
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		SessionsCreated:   int64(m.cCreated.Value()),
		SessionsDone:      int64(m.cFinished[StateDone].Value()),
		SessionsCancelled: int64(m.cFinished[StateCancelled].Value()),
		SessionsFailed:    int64(m.cFinished[StateFailed].Value()),
		SessionsRevised:   int64(m.cRevSessions.Value()),
		PoolsRetained:     int64(m.gPools.Value()),
		WhatIfCalls:       int64(m.cCalls.Value()),
		DaemonsCreated:    int64(m.cDaemons.Value()),
		DeltasEmitted:     int64(m.hChurn.Count()), // one churn observation per delta
	}
	for _, c := range m.cRetunes {
		out.DaemonRetunes += int64(c.Value())
	}
	m.mu.Lock()
	sessions := m.sessions.list()
	backends := make([]*Backend, 0, len(m.backends))
	for _, b := range m.backends {
		backends = append(backends, b)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		switch s.State() {
		case StatePending:
			out.SessionsPending++
		case StateRunning:
			out.SessionsRunning++
		}
	}
	for _, b := range backends {
		out.Backends = append(out.Backends, BackendMetrics{Name: b.Name, WhatIfCalls: b.Tuner.WhatIfCallCount()})
	}
	sort.Slice(out.Backends, func(i, j int) bool { return out.Backends[i].Name < out.Backends[j].Name })
	return out
}

// Shutdown cancels every live session and waits (bounded by ctx) for all of
// them to reach a terminal state. Pending pool-retention timers are
// disarmed: a retained pool's file stays in the state directory for the next
// start instead of being removed by a manager that no longer serves it.
func (m *Manager) Shutdown(ctx context.Context) error {
	for _, s := range m.Sessions() {
		if !s.State().Terminal() {
			s.Cancel()
		}
	}
	for _, s := range m.Sessions() {
		if err := s.Wait(ctx); err != nil {
			return err
		}
		// Terminal: the session retains no further pool, so the timer
		// stopped here is its last.
		s.mu.Lock()
		s.disarmPoolExpiry()
		s.mu.Unlock()
	}
	return nil
}
