package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans are recorded from the benchmark's own files only — the
// program under test is not instrumented for them — kept in memory, and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one benchmark op share it
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer collects spans. Traced runs drive one op at a time at
// Parallelism 1, so the "current parent" is a single slot: the harness sets
// it to the innermost open span (op → session or epoch) and the tuner
// decorator parents its call spans there; a session's phase tracker moves
// them under its phase spans when the session has ended.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	op     int
	parent int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its ID; the span is closed by
// end. Open spans have End == 0.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.now()})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	return time.Duration(s.End - s.Start)
}

// add records a completed span.
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: start, End: end})
	return id
}

// children returns the spans recorded under parent so far, in the order
// they began.
func (t *tracer) children(parent int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) reparent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// beginOp starts a new op: a root span that later spans inherit their op id
// from. It becomes the current parent.
func (t *tracer) beginOp(name string) int {
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	id := t.begin(name, 0)
	t.setParent(id)
	return id
}

// currentOp is the op id spans recorded now carry.
func (t *tracer) currentOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op
}

// endOp closes an op's root span; spans recorded until the next op have no
// parent.
func (t *tracer) endOp(id int) {
	t.end(id)
	t.setParent(0)
}

func (t *tracer) setParent(id int) {
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
}

func (t *tracer) currentParent() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.parent
}

// timed records fn as a child span of the current parent.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name, t.currentParent())
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval its direct children cover (children are clipped to the
// parent and overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cursor := int64(0), s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// closureError reports, over the subtree of root, how far the summed self
// times are from the root's own duration, as a share of it. A proper tree —
// every child inside its parent — closes exactly; a child straddling its
// parent's boundary (a receipt-stamped phase event arriving late) shows up
// here.
func closureError(spans []span, root int) float64 {
	self := selfTimes(spans)
	kids := map[int][]int{}
	var rs span
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s.ID)
		if s.ID == root {
			rs = s
		}
	}
	var total int64
	var walk func(id int)
	walk = func(id int) {
		total += self[id]
		for _, k := range kids[id] {
			walk(k)
		}
	}
	walk(root)
	dur := rs.End - rs.Start
	if dur <= 0 {
		return 0
	}
	diff := total - dur
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) / float64(dur)
}

// writeTrace writes the spans with their derived self times.
func writeTrace(path, workloadName string, seed int64, spans []span) error {
	self := selfTimes(spans)
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workloadName, Seed: seed}
	for _, s := range spans {
		out.Spans = append(out.Spans, outSpan{s, self[s.ID]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span names the tuner decorator records.
const (
	spanWhatIf       = "whatif.call"
	spanAlternatives = "whatif.alternatives"
	spanEnsureStats  = "whatif.ensure_stats"
)

// innerTuner is what the decorator needs of the backend it wraps: the
// advisor's Tuner plus the optional skeleton-returning call derivation
// depends on.
type innerTuner interface {
	core.Tuner
	core.AlternativesTuner
}

// tracedTuner is a transparent timing decorator around a backend's tuner:
// it forwards core.Tuner and core.AlternativesTuner (so cost derivation
// keeps its skeleton path and does not silently degrade to the lattice
// walk) and records one span per call. It also keeps the plan skeletons the
// backend returned, which the traced run replays to time
// optimizer.Alternatives.Select on its own.
type tracedTuner struct {
	inner innerTuner
	tr    *tracer

	mu        sync.Mutex
	skeletons []*optimizer.Alternatives
	stats     int
}

// maxSkeletons bounds the skeletons kept for the Select replay timing.
const maxSkeletons = 512

func newTracedTuner(inner innerTuner, tr *tracer) *tracedTuner {
	return &tracedTuner{inner: inner, tr: tr}
}

func (d *tracedTuner) Catalog() *catalog.Catalog { return d.inner.Catalog() }

func (d *tracedTuner) WhatIfCallCount() int64 { return d.inner.WhatIfCallCount() }

// SetMetrics forwards the registry attachment service.Manager.Register
// performs on tuners that accept one, so the wrapped server still reports
// its latency histograms.
func (d *tracedTuner) SetMetrics(reg *obs.Registry) {
	if ms, ok := d.inner.(interface{ SetMetrics(*obs.Registry) }); ok {
		ms.SetMetrics(reg)
	}
}

func (d *tracedTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	id := d.tr.begin(spanWhatIf, d.tr.currentParent())
	c, used, err := d.inner.WhatIfCost(stmt, cfg)
	d.tr.end(id)
	return c, used, err
}

func (d *tracedTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	id := d.tr.begin(spanAlternatives, d.tr.currentParent())
	c, used, alts, err := d.inner.WhatIfAlternativesCost(stmt, cfg)
	d.tr.end(id)
	if alts != nil {
		d.mu.Lock()
		if len(d.skeletons) < maxSkeletons {
			d.skeletons = append(d.skeletons, alts)
		}
		d.mu.Unlock()
	}
	return c, used, alts, err
}

func (d *tracedTuner) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	id := d.tr.begin(spanEnsureStats, d.tr.currentParent())
	n, err := d.inner.EnsureStatistics(reqs, reduce)
	d.tr.end(id)
	d.mu.Lock()
	d.stats += n
	d.mu.Unlock()
	return n, err
}

func (d *tracedTuner) capturedSkeletons() []*optimizer.Alternatives {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*optimizer.Alternatives(nil), d.skeletons...)
}

func (d *tracedTuner) statsCreated() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
