// Package journal records the advisor's decisions — not its timings — as
// an append-only, bounded, per-session stream of typed events: which
// candidates each query's Greedy(m,k) kept, what the enumeration greedy
// seeded with and what every growth step accepted or rejected (and what
// the runner-up was), which merge attempts produced kept structures,
// what drop analysis removed, and when retries or the circuit breaker
// fired. Traces
// (internal/obs) answer "where did the time go"; the journal answers
// "why is this structure in the recommendation" — the explain layer
// (explain.go) reconstructs per-structure provenance from these events
// alone.
//
// Emission is purely observational and happens at the pipeline's
// sequential reduction points, so recommendations are byte-identical
// with journaling on or off. Memory is bounded per kind: each kind gets
// its own ring, so a noisy kind (retries) can evict
// only its own history, never the scarce decision events explain needs.
package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind names a decision-event type. The set is closed: ParseKinds
// rejects unknown names so a typo in a journal filter is a 400, not an
// empty stream.
type Kind string

// The journal's event kinds, one per pipeline decision point.
const (
	// KindPhase marks a pipeline phase transition (paper §2.2 steps).
	KindPhase Kind = "phase"
	// KindQuery summarizes one query's candidate selection: per-query
	// base cost, best found cost, and the weighted gain it contributes.
	KindQuery Kind = "query"
	// KindCandidate records one candidate structure kept or rejected by
	// a query's Greedy(m,k) selection.
	KindCandidate Kind = "candidate"
	// KindSeed records a greedy search's exhaustive seed choice: the
	// best size-≤m subset and the cost it starts from.
	KindSeed Kind = "greedy-seed"
	// KindStep records one greedy growth step: the structure picked (or
	// the best non-improving structure rejected), the cost delta, how
	// many alternatives were evaluated, and the runner-up.
	KindStep Kind = "greedy-step"
	// KindMerge records one candidate-merging attempt: parents, the
	// merged structure, and whether it was kept (not a duplicate).
	KindMerge Kind = "merge"
	// KindDrop records one drop-analysis round: the existing structure
	// whose removal was cheapest and whether it was actually dropped.
	KindDrop Kind = "drop"
	// KindRetry records one failed backend attempt (the retry layer's
	// per-site transitions; successes are not journaled).
	KindRetry Kind = "retry"
	// KindBreaker records the circuit breaker tripping the session into
	// degraded mode.
	KindBreaker Kind = "breaker"
	// KindStop records a non-empty stop reason (time-limit, cancelled,
	// degraded) on the finished recommendation.
	KindStop Kind = "stop"
	// KindRevise records a session-revision start: a search-only re-run
	// against a persisted costed pool under changed constraints.
	KindRevise Kind = "revise"
	// KindDrift records a continuous tuning daemon's drift evaluation at
	// the end of a trace epoch: the score against the last-tuned template
	// distribution (CostAfter), the threshold (CostBefore), and whether a
	// re-tune was triggered (Accepted).
	KindDrift Kind = "drift"
	// KindDelta records one recommendation delta a daemon emitted: the
	// create keys (Structures), the drop keys (Parents — reused, the only
	// other key-set field), the trigger and path (Reason, "trigger/path"),
	// and the delta's churn (Alternatives).
	KindDelta Kind = "delta"
	// KindFeedback records one DBA feedback decision applied to a daemon:
	// the structure key and whether it was accepted (pinned) or vetoed.
	KindFeedback Kind = "feedback"
)

// Scope values for seed/step events: the per-query candidate-selection
// greedy versus the global enumeration greedy.
const (
	// ScopeQuery marks a per-query Greedy(m,k) candidate-selection event.
	ScopeQuery = "query"
	// ScopeEnumeration marks a global enumeration greedy event.
	ScopeEnumeration = "enumeration"
)

// Kinds lists every event kind in its canonical order (the order
// WriteNDJSON groups nothing by — events are sequence-ordered — but the
// order documentation and filters enumerate).
func Kinds() []Kind {
	return []Kind{KindPhase, KindQuery, KindCandidate, KindSeed, KindStep,
		KindMerge, KindDrop, KindRetry, KindBreaker, KindStop,
		KindRevise, KindDrift, KindDelta, KindFeedback}
}

// Event is one journal entry. Seq and T are stamped by Append; the rest
// is set by the emit site. Query and Step always serialize (-1 = not
// applicable) so consumers never confuse "query 0" with "no query";
// every other field is kind-specific and omitted when empty.
type Event struct {
	// Seq is the session-wide append order (dense per session, gaps only
	// where a ring overwrote history — see Journal.Dropped).
	Seq int64 `json:"seq"`
	// T is the wall-clock append time.
	T time.Time `json:"t"`
	// Kind is the decision-event type.
	Kind Kind `json:"kind"`
	// Scope distinguishes the per-query candidate-selection greedy
	// ("query") from the global enumeration greedy ("enumeration") for
	// seed/step events.
	Scope string `json:"scope,omitempty"`
	// Query is the workload event index the decision concerns, -1 when
	// the decision is not query-scoped.
	Query int `json:"query"`
	// Step is the greedy growth-step number, -1 outside step events
	// (the seed is step -1 by convention too: it precedes step 0).
	Step int `json:"step"`
	// Phase is the pipeline phase name (phase events).
	Phase string `json:"phase,omitempty"`
	// SQL is the query text (query events).
	SQL string `json:"sql,omitempty"`
	// Structure is the structure key the decision concerns.
	Structure string `json:"structure,omitempty"`
	// Structures is a structure-key set: the seed's chosen subset.
	Structures []string `json:"structures,omitempty"`
	// Parents are the two structure keys a merge combined.
	Parents []string `json:"parents,omitempty"`
	// Accepted reports whether the decision kept its subject (candidate
	// chosen, step taken, merge kept, structure dropped). Meaningless on
	// kinds without an accept/reject outcome (phase, retry, stop, ...).
	Accepted bool `json:"accepted"`
	// CostBefore is the relevant cost before the decision (kind-specific:
	// per-query base cost, workload cost before a greedy step, ...).
	CostBefore float64 `json:"costBefore,omitempty"`
	// CostAfter is the corresponding cost after (or the rejected cost).
	CostAfter float64 `json:"costAfter,omitempty"`
	// Gain is the weighted workload-cost gain (query/candidate events).
	Gain float64 `json:"gain,omitempty"`
	// Alternatives counts how many candidates were evaluated alongside
	// the winner in the same reduction.
	Alternatives int `json:"alternatives,omitempty"`
	// RunnerUp is the second-best structure in a greedy step's frontier.
	RunnerUp string `json:"runnerUp,omitempty"`
	// RunnerUpCost is the workload cost the runner-up would have reached.
	RunnerUpCost float64 `json:"runnerUpCost,omitempty"`
	// Reason carries the breaker cause (breaker events), the stop reason
	// (stop), the revised pool's fingerprint (revise), or a daemon's
	// re-tune trigger (drift) and trigger/path (delta).
	Reason string `json:"reason,omitempty"`
	// Site is the backend call site a retry/breaker event fired at.
	Site string `json:"site,omitempty"`
	// Err is the attempt error text (retry events).
	Err string `json:"err,omitempty"`
}

// Ev returns an Event of the given kind with Query and Step pre-set to
// -1 (not applicable); emit sites override what they know.
func Ev(kind Kind) Event { return Event{Kind: kind, Query: -1, Step: -1} }

// DefaultPerKindLimit bounds each kind's ring. 16384 events/kind keeps a
// whole session's decision history for every workload in this repo while
// capping worst-case memory at a few MB per session however long a
// stream of retries or candidate decisions runs.
const DefaultPerKindLimit = 16384

// ring is one kind's bounded buffer: once full, Append overwrites the
// oldest entry and counts the loss.
type ring struct {
	buf     []Event
	next    int // index the next append writes (buf is full once wrapped)
	full    bool
	dropped int64
}

func (r *ring) append(e Event, limit int) {
	if len(r.buf) < limit && !r.full {
		r.buf = append(r.buf, e)
		if len(r.buf) == limit {
			r.next = 0
			r.full = true
		}
		return
	}
	// Full (or the limit shrank): overwrite the oldest slot.
	if r.next >= len(r.buf) {
		r.next = 0
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

// Journal is one session's bounded decision-event stream. The zero
// value is not usable; call New. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Journal is "journaling off"),
// so emit sites never need a guard.
type Journal struct {
	name string

	mu    sync.Mutex
	seq   int64
	limit int
	rings map[Kind]*ring

	mEvents  map[Kind]*obs.Counter
	mDropped map[Kind]*obs.Counter
}

// New creates an empty journal. name labels exports (the session ID).
func New(name string) *Journal {
	return &Journal{name: name, limit: DefaultPerKindLimit, rings: map[Kind]*ring{}}
}

// Name returns the label the journal was created with.
func (j *Journal) Name() string {
	if j == nil {
		return ""
	}
	return j.name
}

// SetLimit changes the per-kind ring bound (minimum 1). Shrinking does
// not retroactively discard history; it only bounds future appends.
func (j *Journal) SetLimit(n int) {
	if j == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	j.mu.Lock()
	j.limit = n
	j.mu.Unlock()
}

// AttachMetrics registers the journal's series on reg:
// dta_journal_events_total{kind} (appends, including later-overwritten
// ones) and dta_journal_dropped_total{kind} (ring overwrites).
func (j *Journal) AttachMetrics(reg *obs.Registry) {
	if j == nil || reg == nil {
		return
	}
	mEvents := map[Kind]*obs.Counter{}
	mDropped := map[Kind]*obs.Counter{}
	for _, k := range Kinds() {
		mEvents[k] = reg.Counter("dta_journal_events_total",
			"Decision-journal events appended, by event kind.", "kind", string(k))
		mDropped[k] = reg.Counter("dta_journal_dropped_total",
			"Decision-journal events overwritten by their kind's bounded ring.", "kind", string(k))
	}
	j.mu.Lock()
	j.mEvents = mEvents
	j.mDropped = mDropped
	j.mu.Unlock()
}

// Append stamps e with the next sequence number and the current time and
// records it in its kind's ring. No-op on a nil journal.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	e.T = time.Now().UTC()
	r := j.rings[e.Kind]
	if r == nil {
		r = &ring{}
		j.rings[e.Kind] = r
	}
	before := r.dropped
	r.append(e, j.limit)
	mEvent, mDrop := j.mEvents[e.Kind], j.mDropped[e.Kind]
	droppedNow := r.dropped > before
	j.mu.Unlock()
	if mEvent != nil {
		mEvent.Inc()
	}
	if droppedNow && mDrop != nil {
		mDrop.Inc()
	}
}

// Reserve makes room for n more events of the kind (up to the ring's
// bound), so the appends that follow do not grow the ring one doubling at a
// time. A caller about to append many events of one kind — merging
// journals one per merge attempt — calls it first. No-op on a nil journal.
func (j *Journal) Reserve(kind Kind, n int) {
	if j == nil || n <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.rings[kind]
	if r == nil {
		r = &ring{}
		j.rings[kind] = r
	}
	if room := j.limit - len(r.buf); !r.full && room > 0 {
		r.buf = slices.Grow(r.buf, min(n, room))
	}
}

// Len reports how many events are currently retained across all kinds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, r := range j.rings {
		n += len(r.buf)
	}
	return n
}

// Dropped reports how many events the rings have overwritten in total.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int64
	for _, r := range j.rings {
		n += r.dropped
	}
	return n
}

// DroppedByKind reports ring overwrites per kind (kinds with zero drops
// are omitted).
func (j *Journal) DroppedByKind() map[Kind]int64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[Kind]int64{}
	for k, r := range j.rings {
		if r.dropped > 0 {
			out[k] = r.dropped
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Events returns the retained events, sequence-ordered. With kinds given,
// only those kinds are returned. The result is a copy; mutating it does
// not affect the journal.
func (j *Journal) Events(kinds ...Kind) []Event {
	if j == nil {
		return nil
	}
	var want map[Kind]bool
	if len(kinds) > 0 {
		want = map[Kind]bool{}
		for _, k := range kinds {
			want[k] = true
		}
	}
	j.mu.Lock()
	var out []Event
	for k, r := range j.rings {
		if want != nil && !want[k] {
			continue
		}
		out = append(out, r.buf...)
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// WriteNDJSON streams the retained events to w as one JSON object per
// line, sequence-ordered. filter nil means every kind; otherwise only
// kinds mapped to true are written.
func (j *Journal) WriteNDJSON(w io.Writer, filter map[Kind]bool) error {
	if j == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range j.Events() {
		if filter != nil && !filter[e.Kind] {
			continue
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ParseKinds parses a comma-separated kind list (as in the journal
// endpoint's ?kind= parameter) into a WriteNDJSON filter, rejecting
// unknown kinds. Empty input yields a nil (pass-everything) filter.
func ParseKinds(s string) (map[Kind]bool, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	known := map[Kind]bool{}
	for _, k := range Kinds() {
		known[k] = true
	}
	out := map[Kind]bool{}
	for _, part := range strings.Split(s, ",") {
		k := Kind(strings.TrimSpace(part))
		if k == "" {
			continue
		}
		if !known[k] {
			return nil, fmt.Errorf("unknown journal event kind %q (known: %v)", k, Kinds())
		}
		out[k] = true
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// ctxKey keys the journal in a context, mirroring obs.WithTrace: the
// service (or a CLI flag) attaches one per session, and the pipeline's
// tracker picks it up without any new plumbing through Options.
type ctxKey struct{}

// WithContext returns a context carrying j. Attaching nil is a no-op.
func WithContext(ctx context.Context, j *Journal) context.Context {
	if j == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, j)
}

// FromContext returns the context's journal, or nil (journaling off).
func FromContext(ctx context.Context) *Journal {
	if ctx == nil {
		return nil
	}
	j, _ := ctx.Value(ctxKey{}).(*Journal)
	return j
}
