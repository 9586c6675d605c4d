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
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
func Kinds() []Kind { return slices.Clone(kinds[:]) }

// kinds is Kinds' list; a record stores its kind as the index here.
var kinds = [...]Kind{KindPhase, KindQuery, KindCandidate, KindSeed, KindStep,
	KindMerge, KindDrop, KindRetry, KindBreaker, KindStop,
	KindRevise, KindDrift, KindDelta, KindFeedback}

const numKinds = len(kinds)

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
// whole session's decision history for every workload in this repo. At 88
// bytes a record, the rings of all fourteen kinds hold at most about 20 MB
// per journal however long a stream of retries or candidate decisions runs;
// the string table and arena beside them stay within twice what the live
// records name (see Journal), and the strings themselves are the keys and
// texts the pipeline already holds.
const DefaultPerKindLimit = 16384

// ring is one kind's bounded buffer: once full, an append overwrites the
// oldest entry and counts the loss.
type ring struct {
	buf     []record
	next    int // index the next append writes (buf is full once wrapped)
	full    bool
	dropped int64
}

// append adds r, reporting whether it overwrote an older record.
func (g *ring) append(r record, limit int) bool {
	if len(g.buf) < limit && !g.full {
		g.buf = append(g.buf, r)
		if len(g.buf) == limit {
			g.next = 0
			g.full = true
		}
		return false
	}
	// Full (or the limit shrank): overwrite the oldest slot.
	if g.next >= len(g.buf) {
		g.next = 0
	}
	g.buf[g.next] = r
	g.next = (g.next + 1) % len(g.buf)
	g.full = true
	g.dropped++
	return true
}

// Journal is one session's bounded decision-event stream. The zero
// value is not usable; call New. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Journal is "journaling off"),
// so emit sites never need a guard.
//
// Events are stored as records (see record): fixed-width, pointer-free,
// their strings IDs into the journal's string table and their key lists
// spans of a uint32 arena. The public Event is rendered only when read.
// Appending a buffer adds each of its strings that a record names to the
// table once (no lookup: a key shared by two buffers takes two entries), so
// without overwrites every entry is named by a live record. Overwritten
// records free nothing, so once a ring has overwritten, the table and the
// arena are rebuilt from the live records whenever either holds more than
// twice what those records named at the last rebuild, plus compactSlack.
type Journal struct {
	name string
	// created anchors record times: a record keeps its append time as a
	// monotonic offset from it.
	created time.Time

	mu    sync.Mutex
	seq   int64
	limit int
	rings [numKinds]ring
	// strs is the string table; strs[0] is "".
	strs  []string
	arena []uint32
	// liveStrs and liveArena are the table's and arena's sizes right
	// after the last rebuild; overwrote reports a ring overwrite since.
	liveStrs, liveArena int
	overwrote           bool
	// one is Append's single-event buffer; remap is AppendBuffer's
	// buffer-to-journal ID scratch.
	one   Buffer
	remap []uint32

	mEvents  [numKinds]*obs.Counter
	mDropped [numKinds]*obs.Counter
}

// compactSlack is how far the string table and the arena may grow past twice
// their live size before a rebuild, so a small journal never rebuilds.
const compactSlack = 256

// New creates an empty journal. name labels exports (the session ID).
func New(name string) *Journal {
	return &Journal{name: name, created: time.Now(), limit: DefaultPerKindLimit, strs: []string{""}}
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
	var mEvents, mDropped [numKinds]*obs.Counter
	for c, k := range kinds {
		mEvents[c] = reg.Counter("dta_journal_events_total",
			"Decision-journal events appended, by event kind.", "kind", string(k))
		mDropped[c] = reg.Counter("dta_journal_dropped_total",
			"Decision-journal events overwritten by their kind's bounded ring.", "kind", string(k))
	}
	j.mu.Lock()
	j.mEvents = mEvents
	j.mDropped = mDropped
	j.mu.Unlock()
}

// Append stamps e with the next sequence number and the current time and
// records it in its kind's ring. It panics on a kind outside Kinds or a
// scope other than ScopeQuery, ScopeEnumeration and "". No-op on a nil
// journal.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.one.Add(e)
	j.appendLocked(&j.one)
	j.one.Reset()
}

// AppendBuffer appends b's events in order, as Append would one by one,
// but under one lock and one clock read: they share an append time. b is
// left as it was; Reset it to reuse it. No-op on a nil journal.
func (j *Journal) AppendBuffer(b *Buffer) {
	if j == nil || b == nil || len(b.recs) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(b)
}

// appendLocked moves b's records into the rings, mapping its local string
// IDs into the journal's table and copying its blocks into the arena, then
// rebuilds the table if it has outgrown its bound. j.mu must be held.
func (j *Journal) appendLocked(b *Buffer) {
	at := int64(time.Since(j.created))
	// Grow the table and the arena once for the whole buffer.
	j.strs, j.arena = slices.Grow(j.strs, len(b.strs)), slices.Grow(j.arena, len(b.arena))
	remap := append(j.remap[:0], make([]uint32, len(b.strs)+1)...)
	id := func(local uint32) uint32 {
		if local == 0 {
			return 0
		}
		if remap[local] == 0 {
			remap[local] = j.intern(b.strs[local-1])
		}
		return remap[local]
	}
	for _, r := range b.recs {
		j.seq++
		r.seq, r.at = j.seq, at
		j.place(&r, b.arena, id)
		if j.rings[r.kind].append(r, j.limit) {
			j.overwrote = true
			if c := j.mDropped[r.kind]; c != nil {
				c.Inc()
			}
		}
		if c := j.mEvents[r.kind]; c != nil {
			c.Inc()
		}
	}
	j.remap = remap
	if j.overwrote && (len(j.strs) > 2*j.liveStrs+compactSlack || len(j.arena) > 2*j.liveArena+compactSlack) {
		j.compact()
	}
}

// intern adds s to the journal's string table and returns its ID.
func (j *Journal) intern(s string) uint32 {
	j.strs = append(j.strs, s)
	return uint32(len(j.strs) - 1)
}

// place maps r's string IDs through id and copies its block, if any, from
// src into the journal's arena. j.mu must be held.
func (j *Journal) place(r *record, src []uint32, id func(uint32) uint32) {
	r.structure, r.runnerUp, r.text = id(r.structure), id(r.runnerUp), id(r.text)
	switch {
	case r.flags&flagParents != 0:
		r.a, r.b = id(r.a), id(r.b)
	case r.flags&flagBlock != 0:
		start := len(j.arena)
		j.arena = copyBlock(j.arena, src[r.a:r.a+r.b], id)
		r.a, r.b = uint32(start), uint32(len(j.arena)-start)
	}
}

// compact rebuilds the string table and the arena, at their exact sizes,
// from the live records alone. It allocates new slices rather than editing
// the old ones, which readers may still hold (see snapshot). j.mu must be
// held.
func (j *Journal) compact() {
	// Number the strings the live records name, in record order, and count
	// their blocks' words.
	remap := make([]uint32, len(j.strs))
	n, words := uint32(1), 0
	mark := func(o uint32) {
		if o != 0 && remap[o] == 0 {
			remap[o] = n
			n++
		}
	}
	for k := range j.rings {
		for i := range j.rings[k].buf {
			r := &j.rings[k].buf[i]
			r.eachID(j.arena, mark)
			if r.flags&flagBlock != 0 {
				words += int(r.b)
			}
		}
	}
	strs := make([]string, n)
	for o, id := range remap {
		if id != 0 {
			strs[id] = j.strs[o]
		}
	}
	oldArena := j.arena
	j.strs, j.arena = strs, make([]uint32, 0, words)
	id := func(o uint32) uint32 { return remap[o] }
	for k := range j.rings {
		for i := range j.rings[k].buf {
			j.place(&j.rings[k].buf[i], oldArena, id)
		}
	}
	j.liveStrs, j.liveArena, j.overwrote = len(j.strs), len(j.arena), false
}

// Trim releases the journal's spare capacity: every ring is cut to its
// length, and the string table and arena are rebuilt at their exact sizes.
// The service trims a session's journal when its job ends, so a finished
// session's journal is retained at the size of what it holds. Appends after
// it grow the journal as usual. No-op on a nil journal.
func (j *Journal) Trim() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for k := range j.rings {
		if r := &j.rings[k]; cap(r.buf) > len(r.buf) {
			r.buf = slices.Clone(r.buf)
		}
	}
	j.remap = nil
	j.compact()
}

// Reserve makes room for n more events of the kind (up to the ring's
// bound), so the appends that follow do not grow the ring one doubling at a
// time. A caller about to append many events of one kind — merging
// journals one per merge attempt — calls it first. No-op on a nil journal.
func (j *Journal) Reserve(kind Kind, n int) {
	if j == nil || n <= 0 {
		return
	}
	c := kindCode(kind)
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &j.rings[c]
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
	for k := range j.rings {
		n += len(j.rings[k].buf)
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
	for k := range j.rings {
		n += j.rings[k].dropped
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
	var out map[Kind]int64
	for c := range j.rings {
		if d := j.rings[c].dropped; d > 0 {
			if out == nil {
				out = map[Kind]int64{}
			}
			out[kinds[c]] = d
		}
	}
	return out
}

// snapshot copies the retained records of the kinds want admits (nil: all),
// sequence-ordered, with the table and arena they name. The table and the
// arena are only ever appended to or replaced whole, so the copies' prefixes
// stay valid after the lock is released.
func (j *Journal) snapshot(want func(Kind) bool) (recs []record, strs []string, arena []uint32) {
	j.mu.Lock()
	n := 0
	for c := range j.rings {
		if want == nil || want(kinds[c]) {
			n += len(j.rings[c].buf)
		}
	}
	if n > 0 {
		recs = make([]record, 0, n)
		for c := range j.rings {
			if want == nil || want(kinds[c]) {
				recs = append(recs, j.rings[c].buf...)
			}
		}
	}
	strs, arena = j.strs, j.arena
	j.mu.Unlock()
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(a.seq, b.seq) })
	return recs, strs, arena
}

// Events returns the retained events, sequence-ordered. With kinds given,
// only those kinds are returned. The result is a copy; mutating it does
// not affect the journal.
func (j *Journal) Events(only ...Kind) []Event {
	if j == nil {
		return nil
	}
	var want func(Kind) bool
	if len(only) > 0 {
		want = func(k Kind) bool { return slices.Contains(only, k) }
	}
	recs, strs, arena := j.snapshot(want)
	if len(recs) == 0 {
		return nil
	}
	out := make([]Event, len(recs))
	for i := range recs {
		out[i] = recs[i].event(strs, arena, j.created)
	}
	return out
}

// WriteNDJSON streams the retained events to w as one JSON object per
// line, sequence-ordered. filter nil means every kind; otherwise only
// kinds mapped to true are written.
func (j *Journal) WriteNDJSON(w io.Writer, filter map[Kind]bool) error {
	if j == nil {
		return nil
	}
	var want func(Kind) bool
	if filter != nil {
		want = func(k Kind) bool { return filter[k] }
	}
	recs, strs, arena := j.snapshot(want)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(recs[i].event(strs, arena, j.created)); err != nil {
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
