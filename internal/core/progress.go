package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Phase identifies one stage of the tuning pipeline (paper §2.2). Phases are
// reported through the Progress callback so a DBA watching a long session
// can see where the advisor is spending its time budget.
type Phase string

// Pipeline phases, in execution order.
const (
	// PhaseIngest is reported while a streamed trace is still being read
	// and compressed online (before the search pipeline starts). Only
	// sessions created from a streamed trace pass through it; snapshots in
	// this phase carry IngestedEvents/IngestedBytes instead of search
	// counters.
	PhaseIngest Phase = "ingest"
	// PhaseRevise is reported while a revision session rebuilds its
	// evaluator state from a persisted CostedPool (workload re-parse,
	// statistics replay, cache and derive-fact restore) before the
	// search layer re-runs. Only sessions started by Revise pass
	// through it; it replaces PhaseBaseline/PhaseColGroups/
	// PhaseCandidates, whose work the pool already carries.
	PhaseRevise      Phase = "revise"
	PhaseBaseline    Phase = "baseline-costing"
	PhaseDrops       Phase = "drop-analysis"
	PhaseColGroups   Phase = "column-groups"
	PhaseCandidates  Phase = "candidate-selection"
	PhaseMerging     Phase = "merging"
	PhaseEnumeration Phase = "enumeration"
	PhaseReports     Phase = "reports"
	PhaseDone        Phase = "done"
)

// Stop reasons recorded in Recommendation.StopReason when tuning ends before
// the search space is exhausted. Either way the recommendation returned is
// the best design found so far (the anytime behaviour of paper §2.1).
const (
	// StopTimeLimit: the Options.TimeLimit budget ran out.
	StopTimeLimit = "time-limit"
	// StopCancelled: the session's context was cancelled.
	StopCancelled = "cancelled"
	// StopDegraded: the circuit breaker tripped — the backend's what-if
	// failure rate crossed the threshold, or a call kept failing after
	// every retry — so the session stopped searching (skipping merging,
	// refinement, and further enumeration) and returned the best design
	// found so far rather than hammering a flaky backend or crashing.
	StopDegraded = "degraded"
)

// Progress is a live snapshot of a running tuning session: the current
// phase, how much of the workload has been through candidate selection, the
// cumulative what-if optimizer calls the session has issued, the best
// improvement discovered so far, and elapsed time against the time budget.
// Snapshots are delivered synchronously on the tuning goroutine via
// Options.Progress; both the CLI progress display and the tuning service's
// event stream are fed from this one code path.
type Progress struct {
	Phase           Phase         `json:"phase"`
	EventsTotal     int           `json:"eventsTotal"`
	EventsTuned     int           `json:"eventsTuned"`
	WhatIfCalls     int64         `json:"whatIfCalls"`
	BestImprovement float64       `json:"bestImprovement"`
	Elapsed         time.Duration `json:"elapsed"`
	TimeLimit       time.Duration `json:"timeLimit,omitempty"`
	// Degraded reports that the session's circuit breaker has tripped: the
	// search is winding down and will return the best-so-far design with
	// StopReason StopDegraded. Streamed so operators watching a session
	// see the degradation the moment it happens, not at the end.
	Degraded bool `json:"degraded,omitempty"`
	// IngestedEvents and IngestedBytes report streaming-ingest volume: raw
	// trace events folded into the online compressor and trace bytes
	// consumed. They grow during PhaseIngest and then stay at their final
	// values for the rest of the session (zero for sessions that were not
	// created from a streamed trace).
	IngestedEvents int64 `json:"ingestedEvents,omitempty"`
	IngestedBytes  int64 `json:"ingestedBytes,omitempty"`
	// DerivedEvals counts configuration costs answered by skeleton replay
	// instead of a real optimizer call (zero over a backend without plan
	// skeletons). Streamed live so the calls-saved ratio is visible while
	// the session runs, not only in the final Result; evaluations are
	// counted once per child configuration, so a mid-search snapshot lags
	// by at most the children in flight.
	DerivedEvals int64 `json:"derivedEvals,omitempty"`
	// DeriveFallbacks counts the plan skeletons fetched so far — the real
	// optimizer calls behind derivation — by event shape ("atom",
	// "atom-join"; see Recommendation.DeriveFallbacks).
	DeriveFallbacks map[string]int64 `json:"deriveFallbacks,omitempty"`
	// Revised reports that this session is a search-only revision of a
	// persisted costed pool: WhatIfCalls counts only the calls the search
	// layer issued beyond what the pool could answer or derive.
	Revised bool `json:"revised,omitempty"`
}

// String renders the snapshot as a one-line status.
func (p Progress) String() string {
	if p.Phase == PhaseIngest {
		return fmt.Sprintf("[%s] %d events · %.1f MB · %s",
			p.Phase, p.IngestedEvents, float64(p.IngestedBytes)/(1<<20),
			p.Elapsed.Round(time.Millisecond))
	}
	s := fmt.Sprintf("[%s] %d/%d events · %d what-if calls · best %.1f%% · %s",
		p.Phase, p.EventsTuned, p.EventsTotal, p.WhatIfCalls,
		100*p.BestImprovement, p.Elapsed.Round(time.Millisecond))
	if p.TimeLimit > 0 {
		s += " / " + p.TimeLimit.String()
	}
	if p.Degraded {
		s += " · DEGRADED"
	}
	return s
}

// errStopped is the internal signal that the session's context was cancelled
// or its time budget exhausted. Search loops translate it into "return the
// best configuration found so far" rather than an error to the caller.
var errStopped = errors.New("core: tuning stopped")

// stopping reports whether err is the early-stop signal.
func stopping(err error) bool { return errors.Is(err, errStopped) }

// tracker threads cancellation, the time budget, the worker pool, and
// progress reporting through the tuning pipeline. The coordinator (the
// tuning goroutine) owns the phase/progress fields, which it only writes
// outside parallel sections; pool workers touch just the concurrency-safe
// parts — the stop flags, the atomic call counter, and emit (serialized by
// cbMu so the Progress callback never runs twice at once).
//
// Every costing runs inside a session tracker: TuneContext and Revise build
// one per session, and TuneStaged's rebase one from the caller's retry,
// fault, breaker and parallelism settings.
type tracker struct {
	ctx       context.Context
	cb        func(Progress)
	start     time.Time
	deadline  time.Time
	timeLimit time.Duration

	// pool bounds the session's evaluation concurrency
	// (Options.Parallelism).
	pool *workerPool

	// finishing marks the report-building stage: once the search has
	// stopped, the final configuration still has to be costed (almost
	// always from cache), so stop checks are suspended. Written by the
	// coordinator between parallel sections only.
	finishing bool
	cancelled atomic.Bool
	timedOut  atomic.Bool
	degraded  atomic.Bool

	// Robustness: the resolved retry policy every what-if optimizer call
	// and statistics operation runs under, the session-scoped fault
	// injector (nil outside fault-testing), the circuit breaker fed by
	// every attempt outcome, and the periodic checkpointer (nil without a
	// sink, and until candidate selection's epoch bump: see
	// startCheckpoints). Written between parallel sections, read by pool
	// workers.
	retry   fault.Policy
	faults  *fault.Injector
	breaker *fault.Breaker
	ckpt    *checkpointer

	// Cached dta_retries_total series by call site (nil maps without
	// metrics; indexing a nil map is a safe zero read).
	mRetryOK  map[string]*obs.Counter
	mRetryErr map[string]*obs.Counter

	phase           Phase
	eventsTotal     int
	eventsTuned     int
	calls           atomic.Int64 // what-if calls issued (see countCall)
	baseCost        float64
	bestImprovement float64

	// Streaming-ingest volume (Options.Ingest), echoed into every snapshot
	// so watchers joining after the ingest phase still see how much trace
	// the session consumed. Written once at construction.
	ingestEvents int64
	ingestBytes  int64

	// revised marks a search-only revision session (core.Revise); echoed
	// into every Progress snapshot. Written once before tuning starts.
	revised bool

	// jnl is the session's decision journal (nil = journaling off). It
	// is picked up from the context like the trace, and emission happens
	// only at sequential reduction points or through the journal's own
	// lock, so journaling never perturbs the search: recommendations are
	// byte-identical with it on or off.
	jnl *journal.Journal

	// drv is the session evaluator's derivation engine (nil over a
	// skeleton-less backend, and until newEvaluator sets it); its derived-eval
	// count and atoms by shape feed every Progress snapshot.
	drv *derive.Engine

	// cbMu serializes Progress callback invocations: countCall emits
	// periodic snapshots from pool workers, and callbacks (the service's
	// session lock, the CLI's stderr writer) expect one caller at a time.
	cbMu sync.Mutex

	// Observability. ctx carries the session's tune-level span; sctx is the
	// context of the open phase span (ctx between phases), which every span
	// of the phase without a parent of its own nests under. Both are written only by the
	// coordinator outside parallel sections; workers only read sctx. Spans
	// opened below the phase (queries, greedy seeds and steps, the what-if
	// calls inside them) take their parent explicitly (scope.span), because
	// per-query searches run concurrently. metrics, when set, receives the
	// pipeline-shape histograms (phase durations, candidates per query, pool
	// sizes).
	sctx      context.Context
	phaseSpan *obs.Span
	phaseAt   time.Time
	metrics   *obs.Registry
}

// newTracker builds the session tracker over ctx, which also carries the
// session's tune-level span.
func newTracker(ctx context.Context, opts Options, start time.Time) *tracker {
	tr := &tracker{ctx: ctx, sctx: ctx, cb: opts.Progress, start: start, timeLimit: opts.TimeLimit, phase: PhaseBaseline, metrics: opts.Metrics}
	tr.jnl = journal.FromContext(ctx)
	if opts.Ingest != nil {
		tr.ingestEvents = opts.Ingest.Events
		tr.ingestBytes = opts.Ingest.Bytes
	}
	if opts.TimeLimit > 0 {
		tr.deadline = start.Add(opts.TimeLimit)
	}
	tr.pool = newWorkerPool(opts.Parallelism)
	tr.retry = opts.Retry.WithDefaults()
	tr.faults = opts.Faults
	tr.breaker = fault.NewBreaker()
	if tr.metrics != nil {
		const rhelp = "Backend call attempts made under the session retry policy, by call site and outcome."
		tr.mRetryOK = map[string]*obs.Counter{}
		tr.mRetryErr = map[string]*obs.Counter{}
		for _, site := range []string{fault.SiteWhatIf, fault.SiteStats, fault.SiteImport} {
			tr.mRetryOK[site] = tr.metrics.Counter("dta_retries_total", rhelp, "site", site, "outcome", "success")
			tr.mRetryErr[site] = tr.metrics.Counter("dta_retries_total", rhelp, "site", site, "outcome", "failure")
		}
	}
	return tr
}

// journaling reports whether the session has a decision journal attached,
// so emit sites can skip building events entirely when it is off.
func (tr *tracker) journaling() bool { return tr.jnl != nil }

// record appends one decision event to the session's journal (no-op
// without one). Callers construct events with journal.Ev so Query/Step
// default to -1 rather than a misleading zero.
func (tr *tracker) record(e journal.Event) { tr.jnl.Append(e) }

// journalBuffers recycles the journal buffers per-query searches and the
// merge fold fill, across queries and sessions.
var journalBuffers = sync.Pool{New: func() any { return new(journal.Buffer) }}

// buffer returns an empty journal buffer, or nil when the session does not
// journal.
func (tr *tracker) buffer() *journal.Buffer {
	if !tr.journaling() {
		return nil
	}
	return journalBuffers.Get().(*journal.Buffer)
}

// flush appends b's events to the session's journal and recycles b. No-op
// on nil.
func (tr *tracker) flush(b *journal.Buffer) {
	if b == nil {
		return
	}
	tr.jnl.AppendBuffer(b)
	b.Reset()
	journalBuffers.Put(b)
}

// retryPolicy returns the resolved per-call retry policy. Critical stages
// escalate the attempt budget: a permanent failure there fails the whole
// session, so it is first made astronomically unlikely (at a 10% transient
// failure rate, ten attempts put permanent failure around 1e-10 per call).
func (tr *tracker) retryPolicy() fault.Policy {
	p := tr.retry
	if tr.critical() && p.MaxAttempts < 10 {
		p.MaxAttempts = 10
	}
	return p
}

// inject consults the session's fault injector (no-op without one).
func (tr *tracker) inject(site string) error { return tr.faults.Inject(site) }

// attemptDone observes one backend attempt outcome: it updates the retry
// metrics, feeds the circuit breaker, and trips the session into degraded
// mode the moment the breaker opens (outside critical stages, which must
// run to completion).
func (tr *tracker) attemptDone(site string, err error) {
	tr.breaker.Record(err == nil)
	if err == nil {
		if c := tr.mRetryOK[site]; c != nil {
			c.Inc()
		}
	} else {
		if c := tr.mRetryErr[site]; c != nil {
			c.Inc()
		}
		if tr.journaling() {
			ev := journal.Ev(journal.KindRetry)
			ev.Site = site
			ev.Err = err.Error()
			tr.record(ev)
		}
	}
	if !tr.critical() && tr.breaker.Tripped() {
		tr.degrade()
	}
}

// critical reports whether the pipeline is in a stage that must complete
// for the session to return anything useful — the baseline costing (no
// improvement baseline, no result) and the finishing stage (the final
// configuration must carry real costs even for a stopped session). In
// these stages retries escalate instead of degrading: a permanent failure
// there fails the session, so it is made astronomically unlikely first.
func (tr *tracker) critical() bool {
	return tr.finishing || tr.phase == PhaseBaseline || tr.phase == PhaseRevise
}

// degrade trips the session into degraded mode: the search winds down at
// the next stop check and the session returns its best-so-far design with
// StopReason StopDegraded. Called by pool workers when the breaker trips
// or a call keeps failing after every retry; safe to call repeatedly.
func (tr *tracker) degrade() {
	if tr.degraded.CompareAndSwap(false, true) {
		if tr.metrics != nil {
			tr.metrics.Counter("dta_sessions_degraded_total",
				"Tuning sessions that tripped their circuit breaker and returned a best-so-far (degraded) recommendation.").Inc()
		}
		if tr.journaling() {
			ev := journal.Ev(journal.KindBreaker)
			ev.Reason = "breaker-open"
			tr.record(ev)
		}
		tr.emit()
	}
}

// closePhase ends the open phase span and observes the phase's duration.
func (tr *tracker) closePhase() {
	if tr.phaseSpan != nil {
		tr.phaseSpan.End()
		tr.phaseSpan = nil
		tr.sctx = tr.ctx
	}
	if tr.metrics != nil && !tr.phaseAt.IsZero() && tr.phase != "" {
		tr.metrics.Histogram("dta_phase_duration_seconds",
			"Wall time per tuning pipeline phase (paper §2.2).",
			obs.LatencyBuckets, "phase", string(tr.phase)).Observe(time.Since(tr.phaseAt).Seconds())
	}
	tr.phaseAt = time.Time{}
}

// ctxStopped reports whether the session's context was cancelled. It is the
// fine-grained check the evaluator performs before every what-if optimizer
// call: a cancelled session stops within one call. The deadline is
// deliberately not checked here — time-limited sessions stop at search-step
// granularity (between greedy steps and per-query selections), matching the
// original coarse behaviour, while baseline costing and report building
// always complete.
func (tr *tracker) ctxStopped() bool {
	if tr.finishing {
		return false
	}
	if tr.cancelled.Load() || tr.degraded.Load() {
		return true
	}
	select {
	case <-tr.ctx.Done():
		tr.cancelled.Store(true)
		return true
	default:
	}
	return false
}

// halted reports whether the session was cancelled or degraded, finishing
// mode or not: the finishing stage still costs a stopped session's final
// configuration, and asks this to prefer facts it already holds.
func (tr *tracker) halted() bool {
	return tr.cancelled.Load() || tr.degraded.Load() || tr.ctx.Err() != nil
}

// stopped reports whether the search should stop: context cancelled or time
// budget exhausted. Checked between search steps (and by every pool worker
// before it starts a candidate).
func (tr *tracker) stopped() bool {
	if tr.finishing {
		return false
	}
	if tr.ctxStopped() || tr.timedOut.Load() {
		return true
	}
	if !tr.deadline.IsZero() && time.Now().After(tr.deadline) {
		tr.timedOut.Store(true)
		return true
	}
	return false
}

// stopReason renders why the session stopped early ("" = ran to completion).
func (tr *tracker) stopReason() string {
	switch {
	case tr.cancelled.Load():
		return StopCancelled
	case tr.degraded.Load():
		return StopDegraded
	case tr.timedOut.Load():
		return StopTimeLimit
	}
	return ""
}

func (tr *tracker) setPhase(p Phase) {
	tr.closePhase()
	tr.phase = p
	if p != PhaseDone {
		ctx, sp := obs.StartSpan(tr.ctx, "phase", string(p))
		if sp != nil {
			tr.phaseSpan = sp
			tr.sctx = ctx
		}
	}
	if p != PhaseDone {
		tr.phaseAt = time.Now()
	}
	if tr.journaling() {
		ev := journal.Ev(journal.KindPhase)
		ev.Phase = string(p)
		tr.record(ev)
	}
	tr.emit()
}

// startCheckpoints installs the periodic checkpointer over ev's skeleton
// facts (none without a sink). Candidate selection calls it at its epoch
// bump, so no checkpoint holds state from before the statistics pass and a
// resumed session restores at that one point. Called between parallel
// sections.
func (tr *tracker) startCheckpoints(opts Options, ev *evaluator) {
	if opts.CheckpointSink == nil {
		return
	}
	every := int64(opts.CheckpointEvery)
	if every <= 0 {
		every = 128
	}
	tr.ckpt = &checkpointer{sink: opts.CheckpointSink, every: every, tr: tr, drv: ev.drv}
}

// countCall charges one what-if optimizer call to the session and emits a
// periodic progress snapshot so long costing loops stay observable. Called
// by whichever pool worker leads a cache miss, so the count is exact under
// parallelism; it is what Recommendation.WhatIfCalls reports (a shared
// server's global counter would mix concurrent sessions together).
func (tr *tracker) countCall() {
	n := tr.ckpt.count(&tr.calls)
	if tr.cb != nil && n%64 == 0 {
		tr.emit()
	}
}

// eventDone records one workload event through candidate selection; gain is
// the event's weighted cost reduction, accumulated into an estimate of the
// improvement available so far.
func (tr *tracker) eventDone(gain float64) {
	tr.eventsTuned++
	if tr.baseCost > 0 && gain > 0 {
		tr.bestImprovement += gain / tr.baseCost
	}
	tr.emit()
}

// observeCost replaces the candidate-selection estimate with the measured
// workload cost of the enumeration search's current best configuration.
func (tr *tracker) observeCost(cost float64) {
	if tr.baseCost <= 0 {
		return
	}
	if imp := (tr.baseCost - cost) / tr.baseCost; imp >= 0 {
		tr.bestImprovement = imp
	}
	tr.emit()
}

func (tr *tracker) emit() {
	if tr.cb == nil {
		return
	}
	derived, fallbacks := tr.drv.Stats()
	tr.cbMu.Lock()
	defer tr.cbMu.Unlock()
	tr.cb(Progress{
		Phase:           tr.phase,
		EventsTotal:     tr.eventsTotal,
		EventsTuned:     tr.eventsTuned,
		WhatIfCalls:     tr.calls.Load(),
		BestImprovement: tr.bestImprovement,
		Elapsed:         time.Since(tr.start),
		TimeLimit:       tr.timeLimit,
		Degraded:        tr.degraded.Load(),
		IngestedEvents:  tr.ingestEvents,
		IngestedBytes:   tr.ingestBytes,
		DerivedEvals:    derived,
		DeriveFallbacks: fallbacks,
		Revised:         tr.revised,
	})
}
