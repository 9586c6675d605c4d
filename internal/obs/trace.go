package obs

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Trace collects the completed spans of one tuning session. It is bounded:
// past the span limit new spans are counted as dropped rather than stored,
// so a runaway session cannot exhaust server memory. A Trace may be exported
// while the session is still running; the export contains the spans
// completed so far.
type Trace struct {
	name  string
	start time.Time

	nextID atomic.Int64

	mu      sync.Mutex
	spans   []spanRecord
	limit   int
	dropped int64
}

// spanRecord is one completed span.
type spanRecord struct {
	id, parent int64
	cat, name  string
	start      time.Time
	dur        time.Duration
	args       []spanArg
}

// spanArg is one typed span argument: an int, a float, a string or a bool,
// by kind; n holds the bits of the first, second and fourth. The Chrome
// export renders it; nothing is boxed before then.
type spanArg struct {
	key  string
	s    string
	n    uint64
	kind argKind
}

type argKind uint8

const (
	argInt argKind = iota
	argFloat
	argString
	argBool
)

// value returns the argument as the Chrome export's JSON renders it.
func (a spanArg) value() any {
	switch a.kind {
	case argInt:
		return int64(a.n)
	case argFloat:
		return math.Float64frombits(a.n)
	case argString:
		return a.s
	default:
		return a.n != 0
	}
}

// DefaultSpanLimit bounds the spans kept per trace. At roughly a hundred
// bytes per span the default caps a trace at ~20 MB — far above any normal
// session (a span per what-if call, and sessions issue thousands of calls).
const DefaultSpanLimit = 200000

// NewTrace creates an empty trace. The name becomes the process name in the
// Chrome trace export (typically the session ID).
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now(), limit: DefaultSpanLimit}
}

// SetLimit replaces the span limit (n ≤ 0 restores the default).
func (t *Trace) SetLimit(n int) {
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Name returns the trace name.
func (t *Trace) Name() string { return t.name }

// SpanCount returns the number of completed spans collected so far.
func (t *Trace) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanCap returns how many span records the trace's storage has room for:
// SpanCount plus the spare capacity Trim releases.
func (t *Trace) SpanCap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.spans)
}

// Dropped returns the number of spans discarded over the limit.
func (t *Trace) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Trim releases the trace's spare capacity: the span list is cut to its
// length. The service trims a session's trace when its job ends, so a
// finished session's trace is retained at the size of what it holds. Spans
// collected after it grow the trace as usual. No-op on a nil trace.
func (t *Trace) Trim() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.spans) > len(t.spans) {
		t.spans = slices.Clone(t.spans)
	}
}

func (t *Trace) collect(r spanRecord) {
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, r)
	}
	t.mu.Unlock()
}

// Span is one in-flight operation. A nil *Span is valid and no-ops, which is
// what StartSpan returns when the context carries no Trace — instrumented
// code never needs to branch on whether tracing is enabled.
type Span struct {
	tr         *Trace
	id, parent int64
	cat, name  string
	start      time.Time
	args       []spanArg
}

// SetInt attaches an integer argument to the span (rendered in the trace
// viewer's args pane), replacing any argument of the same key. The setters
// return the span for chaining and no-op on nil.
func (s *Span) SetInt(key string, v int) *Span {
	return s.set(spanArg{key: key, kind: argInt, n: uint64(v)})
}

// SetFloat attaches a float argument to the span.
func (s *Span) SetFloat(key string, v float64) *Span {
	return s.set(spanArg{key: key, kind: argFloat, n: math.Float64bits(v)})
}

// SetString attaches a string argument to the span.
func (s *Span) SetString(key, v string) *Span {
	return s.set(spanArg{key: key, kind: argString, s: v})
}

// SetBool attaches a boolean argument to the span.
func (s *Span) SetBool(key string, v bool) *Span {
	a := spanArg{key: key, kind: argBool}
	if v {
		a.n = 1
	}
	return s.set(a)
}

func (s *Span) set(a spanArg) *Span {
	if s == nil {
		return nil
	}
	for i := range s.args {
		if s.args[i].key == a.key {
			s.args[i] = a
			return s
		}
	}
	if s.args == nil {
		s.args = make([]spanArg, 0, 2) // a what-if call's event and cost
	}
	s.args = append(s.args, a)
	return s
}

// End completes the span and hands it to the trace. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.collect(spanRecord{
		id: s.id, parent: s.parent, cat: s.cat, name: s.name,
		start: s.start, dur: time.Since(s.start), args: s.args,
	})
}

type traceKey struct{}
type spanKey struct{}

// WithTrace attaches the trace to the context; spans started from the
// returned context (and its descendants) collect into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a span as a child of the context's current span. When the
// context carries no Trace it returns the context unchanged and a nil span —
// the zero-overhead "tracing off" path.
func StartSpan(ctx context.Context, cat, name string) (context.Context, *Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	var parent int64
	if p, _ := ctx.Value(spanKey{}).(*Span); p != nil {
		parent = p.id
	}
	s := &Span{tr: tr, id: tr.nextID.Add(1), parent: parent, cat: cat, name: name, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; ts and dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the trace in Chrome trace-event JSON, loadable in
// chrome://tracing and Perfetto. All spans of a session run on one tuning
// goroutine, so they share one pid/tid and the viewer reconstructs nesting
// from time containment.
//
// Every span event carries a selfUs arg — its exclusive (self) time: the
// span's duration minus the summed durations of its direct children, in
// microseconds, clamped at zero. otherData.selfTimeUs aggregates self time
// per "cat/name" call site, so "where did the time actually go" is computed
// at export rather than eyeballed from the timeline. When children were
// dropped over the span limit their time cannot be subtracted, so a parent's
// self time is an overestimate in truncated traces (droppedSpans > 0 flags
// this).
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()

	// Sum direct-child time per parent id; self = dur − children, clamped.
	childUs := make(map[int64]int64, len(spans))
	for _, r := range spans {
		if r.parent != 0 {
			childUs[r.parent] += r.dur.Microseconds()
		}
	}
	selfBySite := map[string]int64{}

	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"trace":        t.name,
			"spans":        len(spans),
			"droppedSpans": dropped,
		},
		TraceEvents: []chromeEvent{{
			Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
			Args: map[string]any{"name": t.name},
		}},
	}
	for _, r := range spans {
		durUs := r.dur.Microseconds()
		selfUs := durUs - childUs[r.id]
		if selfUs < 0 {
			selfUs = 0 // clock skew between parent and child reads
		}
		selfBySite[r.cat+"/"+r.name] += selfUs
		args := make(map[string]any, len(r.args)+2)
		for _, a := range r.args {
			args[a.key] = a.value()
		}
		args["selfUs"] = selfUs
		if r.parent != 0 {
			args["parentSpan"] = r.parent
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: r.name, Cat: r.cat, Ph: "X",
			Ts:  r.start.Sub(t.start).Microseconds(),
			Dur: durUs,
			Pid: 1, Tid: 1, ID: r.id,
			Args: args,
		})
	}
	out.OtherData["selfTimeUs"] = selfBySite
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
