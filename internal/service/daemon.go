package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DefaultDriftThreshold is the drift score at or above which a daemon
// re-tunes when neither the daemon's options nor the server default
// (dtaserver -drift-threshold) choose one. Total-variation distance 0.15
// means 15% of the workload's weight has moved between templates since the
// last re-tune — enough to shift which indexes pay for themselves, while
// sampling noise on a stable workload stays well below it.
const DefaultDriftThreshold = 0.15

// Daemon triggers, in the order they can fire: the first trace epoch always
// tunes, later epochs tune when drift crosses the threshold, and feedback
// can force a re-tune under the updated pins/vetoes.
const (
	// TriggerInitial is the first re-tune: no accepted baseline exists yet.
	TriggerInitial = "initial"
	// TriggerDrift is a re-tune caused by the drift score crossing the
	// daemon's threshold.
	TriggerDrift = "drift"
	// TriggerFeedback is a re-tune explicitly requested alongside
	// accept/veto feedback.
	TriggerFeedback = "feedback"
)

// Re-tune paths: how a triggered re-tune was answered.
const (
	// PathRevise replays the search layer against the retained costed pool,
	// reweighted to the current template distribution — no costing work.
	PathRevise = "revise"
	// PathFresh runs the full costing pipeline over the current compressed
	// workload (new templates appeared, or no pool is retained).
	PathFresh = "fresh"
)

// DeltaEntry is one structure of a recommendation delta: its stable key
// (what feedback refers to) and the DDL-shaped description.
type DeltaEntry struct {
	Key string `json:"key"`
	DDL string `json:"ddl"`
}

// Delta is one recommendation delta a daemon emitted: the create/drop set
// relative to the daemon's previous proposal and the accepted
// configuration, plus the drift context that triggered it. Deltas carry no
// wall-clock fields, so an identical trace stream and feedback sequence
// yields a byte-identical delta sequence — across restarts and across
// parallelism levels.
type Delta struct {
	// Seq numbers deltas per daemon from 1.
	Seq int `json:"seq"`
	// Trigger is why the re-tune ran: initial, drift, or feedback.
	Trigger string `json:"trigger"`
	// Path is how it ran: revise (against the retained pool) or fresh.
	Path string `json:"path"`
	// Score is the drift score at the re-tune (1 for the initial tune).
	Score float64 `json:"score"`
	// Epoch is the trace-chunk count at emission; Events the cumulative
	// raw events absorbed.
	Epoch  int   `json:"epoch"`
	Events int64 `json:"events"`
	// Create lists structures newly proposed; Drop structures the previous
	// proposal contained but this one does not. Both sorted by key.
	Create []DeltaEntry `json:"create,omitempty"`
	Drop   []DeltaEntry `json:"drop,omitempty"`
	// Churn is len(Create) + len(Drop) — what dta_delta_churn observes.
	Churn int `json:"churn"`
	// Improvement and WhatIfCalls summarize the re-tune that produced the
	// delta; calls are search-layer only on the revise path.
	Improvement float64 `json:"improvement"`
	WhatIfCalls int64   `json:"whatIfCalls"`
}

// DaemonEvent is one entry of a daemon's NDJSON event stream.
type DaemonEvent struct {
	Seq int `json:"seq"`
	// Kind is ingest, drift, delta, feedback, or closed.
	Kind string `json:"kind"`
	// Events/Bytes carry cumulative ingest volume on ingest events.
	Events int64 `json:"events,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	// Score and Retuned carry a drift evaluation's outcome.
	Score   float64 `json:"score,omitempty"`
	Retuned bool    `json:"retuned,omitempty"`
	// Trigger is set on delta events (initial, drift, feedback).
	Trigger string `json:"trigger,omitempty"`
	// Structure and Accepted carry one feedback decision.
	Structure string `json:"structure,omitempty"`
	Accepted  bool   `json:"accepted,omitempty"`
	// Delta is the emitted delta on delta events.
	Delta *Delta `json:"delta,omitempty"`
}

// Daemon is one continuous tuning loop: a long-lived per-database session
// that ingests the live trace incrementally through a streaming compressor,
// scores workload drift against the template distribution it last tuned,
// re-tunes when the score crosses its threshold — through the retained
// costed pool when the pool still covers every current template, through a
// fresh costing pass otherwise — and emits recommendation deltas instead of
// full configurations. Accept/veto feedback pins structures into the
// partial configuration (paper §5) or excludes them from future
// enumeration, and both survive re-tunes and server restarts through the
// manager's state directory.
type Daemon struct {
	tuned
	// gScore mirrors the latest drift score into dta_drift_score{daemon=id}.
	gScore *obs.Gauge

	// events is the daemon's event log and subscriber fan-out; it is
	// published to under mu, which is what orders Seq.
	events hub[DaemonEvent]

	mu     sync.Mutex
	closed bool
	// opts is the re-tune option template (wire CreateOptions mapped to
	// core.Options and prepared with the server-side defaults); wire is the
	// persisted form.
	opts core.Options
	wire CreateOptions
	// threshold is the drift score at which an epoch triggers a re-tune.
	threshold float64
	comp      *workload.Compressor
	epochs    int
	// lastTuned is the template distribution at the last re-tune (nil
	// before the first); score is the latest drift evaluation against it.
	lastTuned drift.Distribution
	score     float64
	// pool is the costed pool retained from the last re-tune; poolDist the
	// template distribution of its statements, for the coverage check.
	// poolFile is the fingerprint of the pool file on disk ("" for none).
	pool     *core.CostedPool
	poolDist drift.Distribution
	poolFile string
	// accepted is the pinned partial configuration built from accept
	// feedback (paper §6.2 user-specified configuration); vetoed the
	// structure keys excluded from enumeration.
	accepted *catalog.Configuration
	vetoed   []string
	// current maps the outstanding proposal's structure keys to the
	// structures themselves; deltas diff successive proposals against it,
	// and feedback resolves keys through it — the recommendation can
	// contain merged structures that exist in no candidate pool.
	current map[string]catalog.Structure
	deltas  []Delta
	retunes map[string]int64
	// lastImprovement/lastCalls summarize the most recent re-tune.
	lastImprovement float64
	lastCalls       int64

	seq int
}

// Deltas returns the daemon's delta history from seq (exclusive); since 0
// returns everything.
func (d *Daemon) Deltas(since int) []Delta {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Delta, 0, len(d.deltas))
	for _, dl := range d.deltas {
		if dl.Seq > since {
			out = append(out, dl)
		}
	}
	return out
}

// Subscribe registers a live event subscriber, mirroring Session.Subscribe:
// history for replay, a live channel (closed when the daemon closes), and
// an unsubscribe function. Slow subscribers drop events rather than
// stalling ingestion.
func (d *Daemon) Subscribe() ([]DaemonEvent, <-chan DaemonEvent, func()) {
	return d.events.subscribe()
}

// publish stamps the event with the daemon's next sequence number and
// publishes it; the caller holds d.mu.
func (d *Daemon) publish(e DaemonEvent) {
	d.seq++
	e.Seq = d.seq
	d.events.publish(e)
}

// DaemonSnapshot is the JSON-friendly view of a daemon.
type DaemonSnapshot struct {
	ID        string    `json:"id"`
	Backend   string    `json:"backend"`
	Created   time.Time `json:"created"`
	Closed    bool      `json:"closed,omitempty"`
	Threshold float64   `json:"threshold"`
	// Epochs is the trace-chunk count; Events/Templates/Representatives
	// the compressor's cumulative state.
	Epochs          int   `json:"epochs"`
	Events          int64 `json:"events"`
	Templates       int   `json:"templates"`
	Representatives int   `json:"representatives"`
	// DriftScore is the latest drift evaluation against the last-tuned
	// template distribution.
	DriftScore float64 `json:"driftScore"`
	// Retunes counts re-tunes by trigger; Deltas the deltas emitted.
	Retunes map[string]int64 `json:"retunes,omitempty"`
	Deltas  int              `json:"deltas"`
	// LastImprovement/LastWhatIfCalls summarize the most recent re-tune.
	LastImprovement float64 `json:"lastImprovement,omitempty"`
	LastWhatIfCalls int64   `json:"lastWhatIfCalls,omitempty"`
	// Accepted and Vetoed are the feedback state (sorted keys); Proposed
	// the outstanding proposal the next delta diffs against.
	Accepted []string     `json:"accepted,omitempty"`
	Vetoed   []string     `json:"vetoed,omitempty"`
	Proposed []DeltaEntry `json:"proposed,omitempty"`
	// PoolFingerprint is the retained pool's content address.
	PoolFingerprint string `json:"poolFingerprint,omitempty"`
}

// Snapshot captures the daemon's current state for reporting.
func (d *Daemon) Snapshot() DaemonSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := DaemonSnapshot{
		ID:              d.id,
		Backend:         d.backend,
		Created:         d.created,
		Closed:          d.closed,
		Threshold:       d.threshold,
		Epochs:          d.epochs,
		Events:          d.comp.Events(),
		Templates:       d.comp.Templates(),
		Representatives: d.comp.Len(),
		DriftScore:      d.score,
		Deltas:          len(d.deltas),
		LastImprovement: d.lastImprovement,
		LastWhatIfCalls: d.lastCalls,
		Vetoed:          append([]string(nil), d.vetoed...),
		Proposed:        entries(d.current, nil, ""),
	}
	out.Retunes = maps.Clone(d.retunes)
	out.Accepted = sortedKeys(byKey(d.accepted))
	if d.pool != nil {
		out.PoolFingerprint = d.pool.Fingerprint
	}
	return out
}

// byKey indexes a configuration's structures by key.
func byKey(cfg *catalog.Configuration) map[string]catalog.Structure {
	out := map[string]catalog.Structure{}
	for _, st := range cfg.Structures() {
		out[st.Key()] = st
	}
	return out
}

// sortedKeys returns the map's keys in order (nil for an empty map).
func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// entries lists, sorted by key and with a DDL verb prefix, the structures
// of have that without lacks (nil = list them all) — one side of a delta.
func entries(have, without map[string]catalog.Structure, verb string) []DeltaEntry {
	var out []DeltaEntry
	for k, st := range have {
		if _, both := without[k]; !both {
			out = append(out, DeltaEntry{Key: k, DDL: verb + st.String()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// DaemonDriftOptions tunes a daemon's drift detection.
type DaemonDriftOptions struct {
	// Threshold is the drift score at or above which an epoch triggers a
	// re-tune; 0 defers to the server default (dtaserver -drift-threshold,
	// DefaultDriftThreshold absent that). Negative is rejected.
	Threshold float64 `json:"threshold,omitempty"`
}

// DaemonRequest is the JSON body of POST /daemons.
type DaemonRequest struct {
	// Database names the registered backend (may be empty when exactly one
	// backend is registered).
	Database string `json:"database,omitempty"`
	// Options carries the re-tune tuning options, same wire form as
	// sessions; reports are always skipped and compression is implicit (the
	// daemon's workload only exists as compressor output).
	Options CreateOptions `json:"options"`
	// Drift tunes drift detection.
	Drift DaemonDriftOptions `json:"drift"`
}

// SetDriftThreshold sets the server-default drift threshold for daemons
// whose request does not choose one (dtaserver -drift-threshold). Call
// before serving; applies to daemons created afterwards.
func (m *Manager) SetDriftThreshold(t float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t <= 0 {
		t = DefaultDriftThreshold
	}
	m.driftDefault = t
}

// CreateDaemon starts a continuous tuning daemon on the named backend. The
// daemon is idle until its first trace chunk arrives.
func (m *Manager) CreateDaemon(req DaemonRequest) (*Daemon, error) {
	b, err := m.backend(req.Database)
	if err != nil {
		return nil, err
	}
	if req.Drift.Threshold < 0 {
		return nil, fmt.Errorf("service: negative drift threshold %g", req.Drift.Threshold)
	}
	opts, err := req.Options.toCore()
	if err != nil {
		return nil, err
	}
	threshold := req.Drift.Threshold
	if threshold == 0 {
		m.mu.Lock()
		threshold = m.driftDefault
		m.mu.Unlock()
	}
	return m.addDaemon("", b, req.Options, opts, threshold, nil)
}

// addDaemon allocates and registers a daemon; the resume path supplies a
// fixed ID and a restored compressor (nil = fresh).
func (m *Manager) addDaemon(id string, b *Backend, wire CreateOptions, opts core.Options, threshold float64, comp *workload.Compressor) (*Daemon, error) {
	opts = m.prepare(b, opts)
	opts.SkipReports = true
	if comp == nil {
		comp = workload.NewCompressor(workload.CompressOptions{})
	}
	m.mu.Lock()
	d, err := m.daemons.add(id, func(id string) *Daemon {
		return &Daemon{
			tuned: newTuned("daemon", id, b.Name, m.reg),
			gScore: m.reg.Gauge("dta_drift_score",
				"Latest workload-drift score per daemon (0 = template distribution unchanged since the last re-tune, 1 = disjoint).",
				"daemon", id),
			opts:      opts,
			wire:      wire,
			threshold: threshold,
			comp:      comp,
			current:   map[string]catalog.Structure{},
			retunes:   map[string]int64{},
		}
	})
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	m.cDaemons.Inc()
	m.log.Info("daemon created", "daemon", d.id, "backend", b.Name, "threshold", threshold)
	return d, nil
}

// GetDaemon returns the daemon by ID.
func (m *Manager) GetDaemon(id string) (*Daemon, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.daemons.byID[id]
	return d, ok
}

// Daemons returns every daemon in creation order.
func (m *Manager) Daemons() []*Daemon {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.daemons.list()
}

// CloseDaemon closes the daemon: it stops accepting trace and feedback,
// its event stream terminates, and its persisted state and pool files are
// removed. The daemon stays listed for inspection.
func (m *Manager) CloseDaemon(id string) (*Daemon, error) {
	d, ok := m.GetDaemon(id)
	if !ok {
		return nil, fmt.Errorf("service: no daemon %q", id)
	}
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		d.publish(DaemonEvent{Kind: "closed"})
		d.events.close()
	}
	d.mu.Unlock()
	m.removeStateFile(id, daemonSuffix)
	m.removeStateFile(id, poolSuffix)
	m.log.Info("daemon closed", "daemon", id)
	return d, nil
}

// EpochResult reports one trace chunk's outcome: the drift evaluation and,
// when a re-tune was triggered, the delta it emitted.
type EpochResult struct {
	Daemon string `json:"daemon"`
	Epoch  int    `json:"epoch"`
	// Events is the cumulative raw-event count; ChunkEvents and ChunkBytes
	// this chunk's volume.
	Events      int64 `json:"events"`
	ChunkEvents int64 `json:"chunkEvents"`
	ChunkBytes  int64 `json:"chunkBytes"`
	// Score is the drift score against the last-tuned distribution;
	// Threshold the daemon's trigger level.
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	// Retuned reports whether this epoch re-tuned; Trigger/Path/Delta
	// describe the re-tune when it did.
	Retuned bool   `json:"retuned"`
	Trigger string `json:"trigger,omitempty"`
	Path    string `json:"path,omitempty"`
	Delta   *Delta `json:"delta,omitempty"`
}

// IngestTrace streams one trace chunk (the workload.ReadTrace line format)
// into the daemon's compressor, evaluates drift at the chunk boundary, and
// re-tunes synchronously when the score crosses the threshold — the first
// chunk always tunes. The call returns when ingestion and any re-tune are
// done; re-tunes wait for a manager worker slot like sessions do, so
// daemons cannot oversubscribe the box. A malformed trace line aborts the
// chunk with a line-numbered error; events before the bad line stay folded
// in (the compressor is cumulative), and the daemon remains usable.
func (m *Manager) IngestTrace(ctx context.Context, id string, trace io.Reader) (*EpochResult, error) {
	d, ok := m.GetDaemon(id)
	if !ok {
		return nil, fmt.Errorf("service: no daemon %q", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("service: daemon %s is closed", d.id)
	}
	b, err := m.backend(d.backend)
	if err != nil {
		return nil, err
	}
	// However the epoch ends — a malformed line, a stable score, a failed
	// re-tune, a delta — what the compressor absorbed is persisted (still
	// under d.mu: this runs before the deferred unlock).
	defer m.writeDaemonState(d)

	chunk, bytes, err := m.ingest(obs.WithTrace(ctx, d.trace), "daemon", d.comp, trace, nil)
	if err != nil {
		return nil, fmt.Errorf("service: daemon %s trace ingest: %w", d.id, err)
	}
	d.epochs++
	d.publish(DaemonEvent{Kind: "ingest", Events: d.comp.Events(), Bytes: bytes})

	cur := drift.Distribution(d.comp.TemplateWeights())
	score := drift.Score(d.lastTuned, cur)
	d.score = score
	d.gScore.Set(score)
	trigger := ""
	switch {
	case d.lastTuned == nil:
		trigger = TriggerInitial
	case score >= d.threshold:
		trigger = TriggerDrift
	}
	ev := journal.Ev(journal.KindDrift)
	ev.CostBefore = d.threshold
	ev.CostAfter = score
	ev.Accepted = trigger != ""
	ev.Reason = trigger
	d.journal.Append(ev)
	d.publish(DaemonEvent{Kind: "drift", Score: score, Retuned: trigger != ""})
	m.log.Info("daemon epoch", "daemon", d.id, "epoch", d.epochs,
		"events", d.comp.Events(), "score", score, "trigger", trigger)

	res := &EpochResult{
		Daemon:      d.id,
		Epoch:       d.epochs,
		Events:      d.comp.Events(),
		ChunkEvents: chunk,
		ChunkBytes:  bytes,
		Score:       score,
		Threshold:   d.threshold,
	}
	if trigger == "" {
		return res, nil
	}
	delta, path, err := m.retuneLocked(ctx, d, b, trigger, cur, score)
	if err != nil {
		return res, err
	}
	res.Retuned = true
	res.Trigger = trigger
	res.Path = path
	res.Delta = delta
	return res, nil
}

// retuneLocked runs one re-tune as a job (the caller holds d.mu): through
// the revise path when the retained pool's statements cover every template
// currently carrying weight, through a fresh costing pass otherwise. The job
// runner does what it does for a session — worker slot, spans, degraded
// bookkeeping, lifecycle series; what a re-tune adds is below it: the
// daemon's pool, proposal and last-tuned distribution are updated and the
// resulting delta is diffed and emitted.
func (m *Manager) retuneLocked(ctx context.Context, d *Daemon, b *Backend, trigger string, cur drift.Distribution, score float64) (*Delta, string, error) {
	path := PathFresh
	if d.pool != nil && drift.Covers(d.poolDist, cur) {
		path = PathRevise
	}
	var dist drift.Distribution // the template distribution of a fresh pass's pool
	j := job{
		kind: "re-tune", who: &d.tuned, name: "retune",
		args: map[string]any{"trigger": trigger, "score": score, "path": path},
	}
	switch path {
	case PathRevise:
		cons := core.Constraints{
			StorageBudget: d.opts.StorageBudget,
			Aligned:       d.opts.Aligned,
			Pinned:        d.accepted,
			Vetoed:        append([]string(nil), d.vetoed...),
			SliceWeights:  drift.Multipliers(d.poolDist, cur),
		}
		j.opts = core.Options{Parallelism: d.opts.Parallelism, Metrics: d.opts.Metrics}
		j.exec = func(ctx context.Context, opts core.Options) (*core.Recommendation, error) {
			return core.Revise(ctx, b.Tuner, d.pool, cons, opts)
		}
	default:
		// Snapshot the compressor's representatives: later chunks keep
		// folding weight into them, and the tuned workload must not move
		// under the pipeline.
		cw := d.comp.Workload()
		w := &workload.Workload{Events: make([]*workload.Event, 0, len(cw.Events))}
		for _, e := range cw.Events {
			cp := *e
			w.Events = append(w.Events, &cp)
		}
		// The pool a fresh pass seals holds exactly w's events (it runs
		// uncompressed), so its distribution is w's: nothing to re-parse.
		dist = distribution(w)
		j.opts = d.opts
		// The workload is already the compressor's representative set;
		// batch-compressing it again would be a no-op pass over every event.
		j.opts.NoCompression = true
		j.opts.UserConfig = d.accepted
		j.opts.Vetoed = append([]string(nil), d.vetoed...)
		j.opts.Ingest = &core.IngestStats{Events: d.comp.Events(), Templates: d.comp.Templates()}
		j.exec = func(ctx context.Context, opts core.Options) (*core.Recommendation, error) {
			return core.TuneContext(ctx, b.Tuner, w, opts)
		}
	}
	var pool *core.CostedPool
	j.opts.PoolSink = func(p *core.CostedPool) { pool = p }
	out := m.runJob(ctx, j)
	rec := out.rec
	if rec == nil {
		err := out.err
		if err == nil {
			err = ctx.Err() // cancelled while queued
		}
		return nil, path, fmt.Errorf("%w: %s (%s/%s): %w", errRetune, d.id, trigger, path, err)
	}
	// A revision that fetched nothing hands back the retained pool itself,
	// and a fresh pass can reseal one with the pool file's fingerprint:
	// neither is rewritten. A resealed pool holds its parent's statements,
	// so only a fresh pass moves the pool's distribution.
	if pool != nil && pool != d.pool {
		d.pool = pool
		if path == PathFresh {
			d.poolDist = dist
		}
	}
	if pool != nil && pool.Fingerprint != d.poolFile && m.writeStateFile(d.id, poolSuffix, pool) {
		d.poolFile = pool.Fingerprint
	}

	// Diff the new proposal against the previous one. Pinned (accepted)
	// structures never appear in NewStructures — they ride in the base —
	// but filter defensively so an accepted key can never churn.
	acc := byKey(d.accepted)
	proposal := map[string]catalog.Structure{}
	for _, st := range rec.NewStructures {
		if _, pinned := acc[st.Key()]; !pinned {
			proposal[st.Key()] = st
		}
	}
	delta := Delta{
		Seq:         len(d.deltas) + 1,
		Trigger:     trigger,
		Path:        path,
		Score:       score,
		Epoch:       d.epochs,
		Events:      d.comp.Events(),
		Create:      entries(proposal, d.current, "CREATE "),
		Drop:        entries(d.current, proposal, "DROP "),
		Improvement: rec.Improvement,
		WhatIfCalls: rec.WhatIfCalls,
	}
	delta.Churn = len(delta.Create) + len(delta.Drop)
	d.current = proposal
	d.lastTuned = cur
	d.score = drift.Score(d.lastTuned, cur) // 0 by construction
	d.gScore.Set(d.score)
	d.lastImprovement = rec.Improvement
	d.lastCalls = rec.WhatIfCalls
	d.deltas = append(d.deltas, delta)
	d.retunes[trigger]++

	ev := journal.Ev(journal.KindDelta)
	ev.Reason = trigger + "/" + path
	ev.Alternatives = delta.Churn
	for _, e := range delta.Create {
		ev.Structures = append(ev.Structures, e.Key)
	}
	for _, e := range delta.Drop {
		ev.Parents = append(ev.Parents, e.Key)
	}
	ev.CostAfter = rec.Improvement
	ev.Accepted = true
	d.journal.Append(ev)

	m.cRetunes[trigger].Inc()
	m.hChurn.Observe(float64(delta.Churn))
	d.publish(DaemonEvent{Kind: "delta", Trigger: trigger, Score: score, Delta: &delta})
	m.log.Info("daemon delta", "daemon", d.id, "seq", delta.Seq, "trigger", trigger,
		"path", path, "churn", delta.Churn)
	return &delta, path, nil
}

// distribution computes the template distribution of a workload's events:
// for a pool's workload, the base of the revise-path coverage check and
// multipliers.
func distribution(w *workload.Workload) drift.Distribution {
	out := drift.Distribution{}
	for _, e := range w.Events {
		out[e.Signature()] += e.Weight
	}
	return out
}

// FeedbackRequest is the JSON body of POST /daemons/{id}/feedback: the
// DBA-in-the-loop decisions about proposed structures.
type FeedbackRequest struct {
	// Accept pins the named structures into the partial configuration:
	// every future re-tune builds on them and never proposes or drops
	// them. Accepting a vetoed key lifts the veto.
	Accept []string `json:"accept,omitempty"`
	// Veto excludes the named structures from future enumeration. Vetoing
	// an accepted key unpins it, and the next delta proposes dropping it.
	Veto []string `json:"veto,omitempty"`
	// Retune forces an immediate re-tune under the updated feedback
	// (trigger "feedback"), so a veto is answered with its replacement in
	// the same call.
	Retune bool `json:"retune,omitempty"`
}

// FeedbackResult reports applied feedback and the delta a forced re-tune
// emitted.
type FeedbackResult struct {
	Daemon   string   `json:"daemon"`
	Accepted []string `json:"accepted,omitempty"`
	Vetoed   []string `json:"vetoed,omitempty"`
	Delta    *Delta   `json:"delta,omitempty"`
}

// Feedback's classifiable failures, for the HTTP layer's errors.Is: a forced
// re-tune with no workload to tune (409, like explain before the first
// delta) and a re-tune that ran and failed (500, a server fault). Every
// other error is the caller's — an unresolvable key, a closed daemon (400).
var (
	errNothingToRetune = errors.New("service: nothing to re-tune")
	errRetune          = errors.New("service: daemon re-tune failed")
)

// Feedback applies accept/veto decisions to the daemon. Accept keys must
// resolve against the current proposal, the retained pool's candidates or
// base, or the already-accepted set; veto keys against the same — an
// unresolvable key fails the whole request before anything is applied.
// Feedback is persisted immediately, so it survives server restarts.
func (m *Manager) Feedback(ctx context.Context, id string, req FeedbackRequest) (*FeedbackResult, error) {
	d, ok := m.GetDaemon(id)
	if !ok {
		return nil, fmt.Errorf("service: no daemon %q", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("service: daemon %s is closed", d.id)
	}

	proposed := make([]catalog.Structure, 0, len(d.current))
	for _, st := range d.current {
		proposed = append(proposed, st)
	}
	keys := append(append([]string(nil), req.Accept...), req.Veto...)
	sts, err := d.pool.Resolve(keys, d.accepted.Structures(), proposed)
	if err != nil {
		return nil, fmt.Errorf("service: feedback for daemon %s: %w", d.id, err)
	}
	type change struct {
		key    string
		st     catalog.Structure
		accept bool
	}
	changes := make([]change, len(keys))
	for i, k := range keys {
		changes[i] = change{k, sts[i], i < len(req.Accept)}
	}

	res := &FeedbackResult{Daemon: d.id}
	vetoSet := map[string]bool{}
	for _, k := range d.vetoed {
		vetoSet[k] = true
	}
	accSet := byKey(d.accepted)
	for _, c := range changes {
		if c.accept {
			delete(vetoSet, c.key)
			accSet[c.key] = c.st
			// The structure is deployed now, not an outstanding proposal.
			delete(d.current, c.key)
			res.Accepted = append(res.Accepted, c.key)
		} else {
			vetoSet[c.key] = true
			if _, was := accSet[c.key]; was {
				delete(accSet, c.key)
				// It was deployed: surface the drop in the next delta.
				d.current[c.key] = c.st
			}
			res.Vetoed = append(res.Vetoed, c.key)
		}
		ev := journal.Ev(journal.KindFeedback)
		ev.Structure = c.key
		ev.Accepted = c.accept
		d.journal.Append(ev)
		d.publish(DaemonEvent{Kind: "feedback", Structure: c.key, Accepted: c.accept})
	}
	d.vetoed = sortedKeys(vetoSet)
	d.accepted = nil
	if len(accSet) > 0 {
		d.accepted = catalog.NewConfiguration()
		for _, k := range sortedKeys(accSet) {
			accSet[k].ApplyTo(d.accepted)
		}
	}
	m.log.Info("daemon feedback", "daemon", d.id,
		"accepted", res.Accepted, "vetoed", res.Vetoed, "retune", req.Retune)

	if req.Retune {
		b, err := m.backend(d.backend)
		if err != nil {
			return nil, err
		}
		cur := drift.Distribution(d.comp.TemplateWeights())
		if cur.Total() <= 0 {
			return nil, fmt.Errorf("%w: daemon %s has ingested no trace", errNothingToRetune, d.id)
		}
		delta, _, err := m.retuneLocked(ctx, d, b, TriggerFeedback, cur, d.score)
		if err != nil {
			m.writeDaemonState(d)
			return nil, err
		}
		res.Delta = delta
	}
	m.writeDaemonState(d)
	return res, nil
}
