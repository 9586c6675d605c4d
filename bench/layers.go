package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// This file holds the traced run's direct, timed calls into single layers —
// no service, no advisor around them — and the roll-ups of the spans the
// tuner decorator and the phase tracker recorded.

// setLayer records a per-layer metric with the unit its table entry
// declares.
func setLayer(r *runResult, name string, v float64, samples int) {
	for _, m := range layerMetrics {
		if m.Name == name {
			r.set(name, m.Unit, v, samples)
			return
		}
	}
	panic("bench: unknown layer metric " + name)
}

// fillLayerDefaults reports 0 for every layer metric a workload does not
// exercise (a daemon has no HTTP create, a SELECT-only trace no dml
// fallbacks), so every traced run emits the full table.
func fillLayerDefaults(r *runResult) {
	for _, m := range layerMetrics {
		if _, ok := r.Metrics[m.Name]; !ok {
			r.set(m.Name, m.Unit, 0, 0)
		}
	}
}

// measureParser times sqlparser.Parse and sqlparser.Signature over the
// statement texts.
func measureParser(r *runResult, tr *tracer, sqls []string) {
	if len(sqls) == 0 {
		return
	}
	stmts := make([]sqlparser.Statement, 0, len(sqls))
	d := tr.timed("sqlparser.parse", func() {
		for _, q := range sqls {
			if st, err := sqlparser.Parse(q); err == nil {
				stmts = append(stmts, st)
			}
		}
	})
	setLayer(r, "sqlparser.parse_us_per_stmt", micros(d)/float64(len(sqls)), len(sqls))
	var sink int
	d = tr.timed("sqlparser.signature", func() {
		for _, st := range stmts {
			sink += len(sqlparser.Signature(st))
		}
	})
	_ = sink
	if len(stmts) > 0 {
		setLayer(r, "sqlparser.signature_us_per_stmt", micros(d)/float64(len(stmts)), len(stmts))
	}
}

// measureIngest times the bare ingest path — workload.StreamTrace feeding a
// Compressor — over a rendered trace, with no service around it, and
// returns the compressor for the drift timing.
func measureIngest(r *runResult, tr *tracer, trace string) (*workload.Compressor, error) {
	comp := workload.NewCompressor(workload.CompressOptions{})
	var err error
	d := tr.timed("workload.stream", func() {
		err = workload.StreamTrace(strings.NewReader(trace), func(e *workload.Event, _ int) error {
			return comp.Add(e)
		})
	})
	if err != nil {
		return nil, err
	}
	if comp.Events() > 0 && d > 0 {
		setLayer(r, "workload.stream_events_per_s", float64(comp.Events())/seconds(d), int(comp.Events()))
	}
	return comp, nil
}

// measureCompress times batch compression of a parsed workload.
func measureCompress(r *runResult, tr *tracer, w *workload.Workload) {
	var out *workload.Workload
	d := tr.timed("workload.compress", func() {
		out = workload.Compress(w, workload.CompressOptions{})
	})
	setLayer(r, "workload.compress_ms", millis(d), 1)
	setLayer(r, "workload.reps", float64(out.Len()), 0)
	if out.Len() > 0 {
		setLayer(r, "workload.compress_ratio", float64(w.Len())/float64(out.Len()), 0)
	}
}

// measureOptimizer times Optimizer.Optimize over the tuned statements under
// the base and the recommended configuration.
func measureOptimizer(r *runResult, tr *tracer, opt *optimizer.Optimizer, stmts []workload.Statement, base, rec *catalog.Configuration) {
	w, err := workload.FromStatements(stmts)
	if err != nil || w.Len() == 0 {
		return
	}
	d := tr.timed("optimizer.optimize", func() {
		for _, cfg := range []*catalog.Configuration{base, rec} {
			for _, e := range w.Events {
				_, _ = opt.Optimize(e.Stmt, cfg)
			}
		}
	})
	n := 2 * w.Len()
	setLayer(r, "optimizer.optimize_us_per_stmt", micros(d)/float64(n), n)
}

// measureSelect times Alternatives.Select — the skeleton replay cost
// derivation answers cache misses with — over the skeletons the decorator
// captured, selecting under the recommended configuration's structures.
func measureSelect(r *runResult, tr *tracer, skeletons []*optimizer.Alternatives, rec *catalog.Configuration) {
	if len(skeletons) == 0 {
		return
	}
	keys := map[string]bool{}
	if rec != nil {
		for _, st := range rec.Structures() {
			keys[st.Key()] = true
		}
	}
	has := func(k string) bool { return keys[k] }
	const rounds = 20
	var sink float64
	d := tr.timed("optimizer.select", func() {
		for i := 0; i < rounds; i++ {
			for _, a := range skeletons {
				c, _, _ := a.Select(has)
				sink += c
			}
		}
	})
	_ = sink
	n := rounds * len(skeletons)
	setLayer(r, "optimizer.select_us_per_replay", micros(d)/float64(n), n)
}

// measureDrift times drift.Score between two template-weight snapshots.
func measureDrift(r *runResult, tr *tracer, a, b map[string]float64) {
	const rounds = 200
	var sink float64
	d := tr.timed("drift.score", func() {
		for i := 0; i < rounds; i++ {
			sink += drift.Score(drift.Distribution(a), drift.Distribution(b))
		}
	})
	_ = sink
	setLayer(r, "drift.score_us", micros(d)/rounds, rounds)
}

// measurePool reports the sealed pool's JSON size and times its
// fingerprint check, the work a revision does before any search.
func measurePool(r *runResult, tr *tracer, pool *core.CostedPool) {
	if pool == nil {
		return
	}
	if b, err := json.Marshal(pool); err == nil {
		setLayer(r, "core.pool_bytes", float64(len(b)), 0)
	}
	d := tr.timed("core.pool_check", func() { _ = pool.Check() })
	setLayer(r, "core.pool_check_ms", millis(d), 1)
}

// progressPhases collects per-phase wall time from a direct core call's
// Progress callback (the same signal sessions publish as events).
type progressPhases struct {
	cur     core.Phase
	since   time.Time
	elapsed map[core.Phase]time.Duration
}

func newProgressPhases() *progressPhases {
	return &progressPhases{elapsed: map[core.Phase]time.Duration{}}
}

func (p *progressPhases) observe(pr core.Progress) {
	if pr.Phase == p.cur {
		return
	}
	now := time.Now()
	if p.cur != "" {
		p.elapsed[p.cur] += now.Sub(p.since)
	}
	p.cur, p.since = pr.Phase, now
}

// finish closes the phase still open when the call returned.
func (p *progressPhases) finish() { p.observe(core.Progress{Phase: core.PhaseDone}) }

// tracedPhases are the pipeline phases reported as core.phase.<name>_ms.
var tracedPhases = []core.Phase{core.PhaseBaseline, core.PhaseColGroups, core.PhaseCandidates,
	core.PhaseMerging, core.PhaseEnumeration, core.PhaseDrops}

func setPhaseMetrics(r *runResult, perSession []map[core.Phase]time.Duration) {
	for _, ph := range tracedPhases {
		var xs []float64
		for _, m := range perSession {
			xs = append(xs, millis(m[ph]))
		}
		setLayer(r, "core.phase."+string(ph)+"_ms", median(xs), len(xs))
	}
}

// decoratorRollup summarizes the tuner decorator's spans over the traced
// ops (op ids in ops): call counts, busy time, and call latency quantiles.
// sessionNS is the summed duration of the sessions those calls ran in.
func decoratorRollup(r *runResult, spans []span, ops map[int]bool, sessionNS int64) (busy time.Duration) {
	var calls, alts int
	var lat []float64
	for _, s := range spans {
		if !ops[s.Op] {
			continue
		}
		switch s.Name {
		case spanWhatIf:
			calls++
		case spanAlternatives:
			alts++
		default:
			continue
		}
		busy += time.Duration(s.End - s.Start)
		lat = append(lat, micros(time.Duration(s.End-s.Start)))
	}
	setLayer(r, "whatif.calls", float64(calls+alts), 0)
	setLayer(r, "whatif.alternatives_calls", float64(alts), 0)
	setLayer(r, "whatif.busy_ms", millis(busy), len(lat))
	if sessionNS > 0 {
		setLayer(r, "whatif.busy_share", float64(busy)/float64(sessionNS), 0)
	}
	setLayer(r, "whatif.call_p50_us", quantile(lat, 0.5), len(lat))
	setLayer(r, "whatif.call_p95_us", quantile(lat, 0.95), len(lat))
	return busy
}

// statsRollup reports the decorator's EnsureStatistics spans over the whole
// traced run, warm-up included: that is where first-session statistics
// creation is paid, and where work moved into statistics must show.
func statsRollup(r *runResult, spans []span, created int) {
	var d time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == spanEnsureStats {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	setLayer(r, "whatif.ensure_stats_ms", millis(d), n)
	setLayer(r, "whatif.stats_created", float64(created), 0)
}

// deriveRollup sums the derivation layer's counters over recommendations.
func deriveRollup(r *runResult, recs []*core.Recommendation) {
	var derived, calls int64
	fb := map[string]int64{}
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		derived += rec.DerivedEvals
		calls += rec.WhatIfCalls
		for k, v := range rec.DeriveFallbacks {
			// Join-shape fallbacks carry a "-join" suffix on the reason.
			fb[k] += v
		}
	}
	setLayer(r, "derive.derived_evals", float64(derived), 0)
	if derived+calls > 0 {
		setLayer(r, "derive.derived_share", float64(derived)/float64(derived+calls), 0)
	}
	for _, k := range []string{"dml", "atom", "atom-join"} {
		setLayer(r, "derive.fallbacks."+k, float64(fb[k]), 0)
	}
}

// cacheMeter accumulates the evaluator's cost-cache outcome counters
// (dta_cost_cache_requests_total in the manager's registry) over the
// intervals it brackets — the traced ops, not their reference twins.
type cacheMeter struct {
	mgr    *service.Manager
	before map[string]float64
	total  map[string]float64
}

var cacheOutcomes = []string{"hit", "miss", "coalesced", "derived"}

func newCacheMeter(mgr *service.Manager) *cacheMeter {
	return &cacheMeter{mgr: mgr, total: map[string]float64{}}
}

func (c *cacheMeter) read() map[string]float64 {
	out := map[string]float64{}
	for _, o := range cacheOutcomes {
		out[o] = c.mgr.Registry().Counter("dta_cost_cache_requests_total", "", "outcome", o).Value()
	}
	return out
}

func (c *cacheMeter) begin() { c.before = c.read() }

func (c *cacheMeter) end() {
	for k, v := range c.read() {
		c.total[k] += v - c.before[k]
	}
}

func (c *cacheMeter) report(r *runResult) {
	for _, o := range cacheOutcomes {
		setLayer(r, "core.cache."+o, c.total[o], 0)
	}
}

// timedGet fetches a service URL and returns the elapsed time; the body is
// drained so the time covers the whole export.
func timedGet(tr *tracer, name string, svc *serviceEnv, path string) (time.Duration, error) {
	var err error
	d := tr.timed(name, func() {
		var resp *http.Response
		resp, err = svc.client.Get(svc.url + path)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
	})
	return d, err
}

// measureExports measures what a finished session or daemon costs to
// inspect: its journal and span volume, and the explain, trace and snapshot
// exports over HTTP. resource is its URL, traceSuffix its trace endpoint.
func measureExports(r *runResult, tr *tracer, svc *serviceEnv, resource, traceSuffix string, journalEvents, spans int) {
	setLayer(r, "journal.events_per_session", float64(journalEvents), 0)
	setLayer(r, "obs.spans_per_session", float64(spans), 0)
	for _, get := range []struct{ span, path, metric string }{
		{"journal.explain", resource + "/explain", "journal.explain_ms"},
		{"obs.trace_export", resource + traceSuffix, "obs.trace_export_ms"},
		{"service.http_result", resource, "service.http_result_ms"},
	} {
		if d, err := timedGet(tr, get.span, svc, get.path); err == nil {
			setLayer(r, get.metric, millis(d), 1)
		}
	}
}

// runtimeMetrics reports the heap high-water mark and GC cycles the meter
// saw.
func runtimeMetrics(r *runResult, a *allocMeter) {
	setLayer(r, "runtime.peak_heap_mb", float64(a.peakHeap)/(1<<20), 0)
	setLayer(r, "runtime.num_gc", float64(a.gcEnd-a.gcStart), 0)
}
