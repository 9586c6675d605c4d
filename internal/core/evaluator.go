package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// evaluator computes workload costs under configurations, caching per-event
// costs keyed by the subset of configuration structures that can possibly
// affect the event. Two configurations differing only in structures
// irrelevant to an event share the event's cached cost, which is what makes
// Greedy(m,k) over thousands of configurations affordable.
//
// The cache is concurrency-safe and single-flight: when several pool
// workers ask for the same key, the first becomes the leader and issues the
// one optimizer call while the rest wait on the entry's ready channel — so
// the what-if call count of a run is independent of its parallelism. The
// immutable per-event analysis (eventInfo) is precomputed at construction
// and only read afterwards.
type evaluator struct {
	t      Tuner
	events []*workload.Event
	infos  []*eventInfo

	mu    sync.Mutex
	cache map[string]*cacheEntry

	// tr, when set, carries the session's cancellation signal, progress
	// accounting, and worker pool; cache misses check it before reaching the
	// optimizer so a cancelled session stops within one what-if call per
	// worker.
	tr *tracker
	// calls counts the what-if optimizer calls this evaluator issued — the
	// session-exact figure reported in Recommendation.WhatIfCalls (a shared
	// server's global counter would mix concurrent sessions together). Only
	// a cache-miss leader increments it, so it also stays exact under
	// parallelism.
	calls atomic.Int64

	// drv is the session's cost-derivation engine, present iff the backend
	// returns plan skeletons (AlternativesTuner): cache-miss leaders resolve
	// SELECT costs through it, and it fetches the skeletons it needs with
	// real calls of its own. Over a skeleton-less backend it is nil and
	// every miss is a plain real call — the oracle derivation is tested
	// against.
	drv *derive.Engine

	// weights, when non-nil, overrides each event's workload weight in
	// configCost's fold (Constraints.SliceWeights). Per-event costs — and
	// therefore cache keys, derive facts, and call counts — never depend
	// on it; only the sequential weighted sum does, which is what lets a
	// revision reweight workload slices without a single new optimizer
	// call. Written only between parallel sections.
	weights []float64

	// Cache-behaviour counters (attach caches the registry series once so
	// the hot path never takes registry locks); all nil without metrics.
	mHits, mMisses, mCoalesced, mDerived *obs.Counter
}

// cacheEntry is one single-flight cost slot. The leader that created the
// entry fills cost/used/err and then closes ready; concurrent readers of
// the same key block on ready instead of issuing a duplicate optimizer
// call. A failed entry is removed from the map before ready closes, so a
// later call (the finishing-mode retry after a cancelled search) computes
// it afresh.
type cacheEntry struct {
	ready chan struct{}
	cost  float64
	used  []string
	err   error
}

// closedReady is the ready channel of entries that never were in flight.
var closedReady = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

type eventInfo struct {
	q      *optimizer.QueryInfo
	tables map[string]bool
	isDML  bool
	target string // DML target table
	// refCols holds "table.column" for every predicate/join/group/order
	// column the statement touches; an index whose leading key column is
	// not among them (and which does not cover a scope) cannot change the
	// statement's plan, so it is irrelevant for caching purposes.
	refCols map[string]bool
	// required holds, per table, each scope's required column list for
	// covering checks (self-joins contribute several lists).
	required map[string][][]string
}

// coversAnyScope reports whether the index covers some scope of the event
// on its table.
func (info *eventInfo) coversAnyScope(ix *catalog.Index) bool {
	for _, req := range info.required[ix.Table] {
		if ix.Covers(req) {
			return true
		}
	}
	return false
}

// newEvaluator analyzes the workload and, iff the backend can return plan
// skeletons, installs a derivation engine in the given mode ("" = on).
func newEvaluator(t Tuner, w *workload.Workload, mode derive.Mode) *evaluator {
	ev := &evaluator{t: t, events: w.Events, cache: map[string]*cacheEntry{}}
	if _, ok := t.(AlternativesTuner); ok {
		ev.drv = derive.New(mode)
	}
	for _, e := range w.Events {
		info := &eventInfo{tables: map[string]bool{}, refCols: map[string]bool{}, required: map[string][][]string{}}
		if q, err := optimizer.Analyze(t.Catalog(), e.Stmt); err == nil {
			info.q = q
			for _, s := range q.Scopes {
				info.tables[s.Table.Name] = true
				info.required[s.Table.Name] = append(info.required[s.Table.Name], s.Required)
			}
			if q.Kind != optimizer.KindSelect {
				info.isDML = true
				info.target = q.Scopes[0].Table.Name
			}
			for _, tc := range referencedColumns(q) {
				for _, c := range tc.cols {
					info.refCols[tc.table+"."+c] = true
				}
			}
		}
		ev.infos = append(ev.infos, info)
	}
	return ev
}

// attach binds the session tracker (cancellation, accounting, worker pool)
// and caches the cost-cache metric series. Entry points that predate
// TuneContext (TuneStaged) never attach one; the evaluator then runs
// sequentially with no metrics.
func (ev *evaluator) attach(tr *tracker) {
	ev.tr = tr
	if tr == nil {
		return
	}
	if tr.ckpt != nil {
		tr.ckpt.ev = ev
	}
	if ev.drv != nil {
		// The derivation engine journals its per-evaluation fallbacks and
		// feeds the live Progress breakdown through the tracker.
		ev.drv.SetJournal(tr.jnl)
		tr.deriveStats = ev.drv.Stats
	}
	if tr.metrics == nil {
		return
	}
	const help = "What-if cost cache behaviour: served hits, leader misses (one optimizer call each), waits coalesced onto another worker's in-flight call, and misses answered by cost derivation (no optimizer call)."
	ev.mHits = tr.metrics.Counter("dta_cost_cache_requests_total", help, "outcome", "hit")
	ev.mMisses = tr.metrics.Counter("dta_cost_cache_requests_total", help, "outcome", "miss")
	ev.mCoalesced = tr.metrics.Counter("dta_cost_cache_requests_total", help, "outcome", "coalesced")
	ev.mDerived = tr.metrics.Counter("dta_cost_cache_requests_total", help, "outcome", "derived")
	ev.drv.AttachMetrics(tr.metrics)
}

// pool returns the session's worker pool (nil → sequential).
func (ev *evaluator) pool() *workerPool {
	if ev.tr == nil {
		return nil
	}
	return ev.tr.pool
}

// analyzed returns the analysis of event i (nil if the statement does not
// resolve against the catalog).
func (ev *evaluator) analyzed(i int) *optimizer.QueryInfo { return ev.infos[i].q }

// preparedStructure is one configuration structure with the per-
// configuration half of the relevance computation done up front: the
// canonical key (built once per configuration instead of once per event),
// the "table.column" probe string the refCols test needs, and — for
// partitionings — whether the table carries a clustered index.
type preparedStructure struct {
	keyed derive.Keyed
	table string // owning table; "" for views
	probe string // refCols probe: leading key column / partitioning column
	ix    *catalog.Index
	view  *catalog.MaterializedView
	part  bool // partitioning record
	// partClustered: the table has a clustered index in this configuration,
	// so its partitioning affects any event touching the table.
	partClustered bool
}

// preparedConfig is a configuration with its structures rendered into
// pre-sorted preparedStructure records. The per-event relevance filter —
// the innermost loop of every Greedy(m,k) frontier — then walks the records
// without building a key string, concatenating a probe, or sorting: a
// filtered subsequence of a key-sorted slice is itself key-sorted.
// configCost prepares its configuration once and shares it, read-only,
// across all events and worker goroutines.
type preparedConfig struct {
	cfg  *catalog.Configuration
	recs []preparedStructure
}

func (ev *evaluator) prepareConfig(cfg *catalog.Configuration) *preparedConfig {
	pc := &preparedConfig{cfg: cfg}
	pc.recs = make([]preparedStructure, 0, len(cfg.Indexes)+len(cfg.TableParts)+len(cfg.Views))
	for _, ix := range cfg.Indexes {
		pc.recs = append(pc.recs, preparedStructure{
			keyed: derive.Keyed{Key: ix.Key(), Structure: catalog.Structure{Index: ix}},
			table: ix.Table,
			probe: ix.Table + "." + ix.KeyColumns[0],
			ix:    ix,
		})
	}
	for table, p := range cfg.TableParts {
		pc.recs = append(pc.recs, preparedStructure{
			keyed:         derive.Keyed{Key: "tp:" + table + "=" + p.String(), Structure: catalog.Structure{PartTable: table, Part: p}},
			table:         table,
			probe:         table + "." + p.Column,
			part:          true,
			partClustered: cfg.ClusteredIndex(table) != nil,
		})
	}
	for _, v := range cfg.Views {
		pc.recs = append(pc.recs, preparedStructure{
			keyed: derive.Keyed{Key: v.Key(), Structure: catalog.Structure{View: v}},
			view:  v,
		})
	}
	sort.Slice(pc.recs, func(a, b int) bool { return pc.recs[a].keyed.Key < pc.recs[b].keyed.Key })
	return pc
}

// relevant returns the configuration structures that can affect the event,
// sorted by key — the set behind both the cost-cache key and the derivation
// engine's tops.
func (pc *preparedConfig) relevant(info *eventInfo) []derive.Keyed {
	var out []derive.Keyed
	for i := range pc.recs {
		r := &pc.recs[i]
		switch {
		case r.ix != nil:
			if !info.tables[r.table] {
				continue
			}
			// A query plan can only change if the index is seekable on a
			// referenced column, covers a scope, or is clustered (the
			// clustered index is the table itself). DML statements feel
			// every index on the target table through update overhead.
			if !info.isDML && !r.ix.Clustered && !info.refCols[r.probe] && !info.coversAnyScope(r.ix) {
				continue
			}
		case r.part:
			if !info.tables[r.table] {
				continue
			}
			// Partitioning affects query plans through elimination on a
			// referenced column, or by destroying a clustered index's output
			// order (the aligned clustered index is partitioned with the
			// table).
			if !info.refCols[r.probe] && !r.partClustered {
				continue
			}
		default:
			if info.isDML {
				if !r.view.References(info.target) {
					continue
				}
			} else if !info.viewRelevant(r.view) {
				continue
			}
		}
		out = append(out, r.keyed)
	}
	return out
}

// viewRelevant reports whether a view can answer the (SELECT) event: a view
// can only answer a query over exactly its table set.
func (info *eventInfo) viewRelevant(v *catalog.MaterializedView) bool {
	if len(v.Tables) != len(info.tables) {
		return false
	}
	for _, tn := range v.Tables {
		if !info.tables[tn] {
			return false
		}
	}
	return true
}

// additiveRelevant reports whether a candidate-pool structure is an additive
// plan alternative for this (SELECT) event — the filter behind the
// derivation engine's tops. It mirrors relevant's query branch for
// non-clustered indexes and views; clustered indexes and partitionings
// reshape base tables and are never pool-added to a top.
func (info *eventInfo) additiveRelevant(s catalog.Structure) bool {
	switch {
	case s.Index != nil:
		ix := s.Index
		if ix.Clustered || !info.tables[ix.Table] {
			return false
		}
		return info.refCols[ix.Table+"."+ix.KeyColumns[0]] || info.coversAnyScope(ix)
	case s.View != nil:
		return info.viewRelevant(s.View)
	default:
		return false
	}
}

// relevantKey builds the cache key component: the sorted keys of cfg
// structures that can affect the event.
func (ev *evaluator) relevantKey(rel []derive.Keyed) string {
	var b strings.Builder
	for i, k := range rel {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(k.Key)
	}
	return b.String()
}

// eventCostByIndex evaluates one event under cfg, preparing the
// configuration on the spot. Loops that evaluate many events under the same
// configuration should prepare once and call eventCost directly.
func (ev *evaluator) eventCostByIndex(i int, cfg *catalog.Configuration) (float64, []string, error) {
	return ev.eventCost(i, ev.prepareConfig(cfg))
}

func (ev *evaluator) eventCost(i int, pc *preparedConfig) (float64, []string, error) {
	info := ev.infos[i]
	if info.q == nil {
		// The statement does not resolve against the catalog (e.g. it
		// references objects of a database not being tuned); it is skipped
		// rather than failing the whole tuning session.
		return 0, nil, nil
	}
	cfg := pc.cfg
	rel := pc.relevant(info)
	key := itoa(i) + "\x00" + ev.relevantKey(rel)
	ev.mu.Lock()
	if ce, ok := ev.cache[key]; ok {
		ev.mu.Unlock()
		select {
		case <-ce.ready:
			ev.count(ev.mHits)
		default:
			// Another worker is mid-flight on this key: wait for its result
			// instead of issuing a duplicate optimizer call.
			ev.count(ev.mCoalesced)
			<-ce.ready
		}
		return ce.cost, ce.used, ce.err
	}
	ce := &cacheEntry{ready: make(chan struct{})}
	ev.cache[key] = ce
	ev.mu.Unlock()

	// Leader path: this goroutine owns the key and issues the one call.
	fail := func(err error) (float64, []string, error) {
		ce.err = err
		ev.mu.Lock()
		delete(ev.cache, key)
		ev.mu.Unlock()
		close(ce.ready)
		return 0, nil, err
	}
	if ev.tr.ctxStopped() {
		return fail(errStopped)
	}
	if ev.drv != nil {
		if info.isDML {
			// Update overhead depends on the full index set — costs are not
			// plan-set monotone — so DML always takes the real call.
			ev.drv.FallbackDML(i)
		} else if res, ok := ev.drv.Resolve(i, len(info.q.Scopes) > 1, rel, info.additiveRelevant, func(top *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
			c, used, alts, err := ev.realCall(i, top, true)
			if err == nil {
				ev.remember(i, top, c, used)
			}
			return c, used, alts, err
		}); ok {
			if err := ev.verifyDerived(i, cfg, res); err != nil {
				return fail(err)
			}
			// A derived answer is a fourth cache outcome: no optimizer call
			// happened for it, so neither ev.calls, the tracker's call
			// accounting, nor the circuit breaker hears about it (the
			// skeleton fetch behind it accounted for itself).
			ev.count(ev.mDerived)
			ce.cost, ce.used = res.Cost, res.Used
			close(ce.ready)
			return ce.cost, ce.used, nil
		}
	}
	c, used, _, err := ev.realCall(i, cfg, false)
	if err != nil {
		return fail(err)
	}
	ce.cost, ce.used = c, used
	close(ce.ready)
	return c, used, nil
}

// remember files a skeleton fetch's (cost, used) answer under the top's own
// cost-cache key, unless that key is already cached or in flight. The fetch
// is a real call's product like any other, so checkpoints and sealed pools
// persist it: a resumed session that asks for the top itself pays nothing.
func (ev *evaluator) remember(i int, top *catalog.Configuration, cost float64, used []string) {
	key := itoa(i) + "\x00" + ev.relevantKey(ev.prepareConfig(top).relevant(ev.infos[i]))
	ev.mu.Lock()
	if _, ok := ev.cache[key]; !ok {
		ev.cache[key] = &cacheEntry{ready: closedReady, cost: cost, used: used}
	}
	ev.mu.Unlock()
}

// realCall issues one accounted optimizer call — a cache-miss leader's own,
// or the derivation engine's skeleton fetch (wantAlts) — inside a what-if
// span, and maps its failure onto the session's stop protocol: errStopped
// when the session is winding down or degrades because of it, the backend's
// error when the call was critical.
func (ev *evaluator) realCall(i int, cfg *catalog.Configuration, wantAlts bool) (float64, []string, *optimizer.Alternatives, error) {
	ev.count(ev.mMisses)
	_, sp := obs.StartSpan(ev.tr.spanCtx(), "whatif", "what-if")
	c, used, alts, err := ev.whatIfCall(i, cfg, wantAlts)
	if err != nil {
		sp.SetArg("event", i).SetArg("error", err.Error()).End()
		if ev.tr.ctxStopped() {
			// Cancelled (or already degraded) mid-retry: wind down without
			// charging the failure to the backend.
			return 0, nil, nil, errStopped
		}
		if !ev.tr.critical() {
			// A call that failed every retry during the search proper
			// degrades the session — the best-so-far design is still worth
			// returning — instead of failing it outright.
			ev.tr.degrade()
			return 0, nil, nil, errStopped
		}
		return 0, nil, nil, err
	}
	sp.SetArg("event", i).SetArg("cost", c).End()
	return c, used, alts, nil
}

// setDerivePool hands the derivation engine the candidate pool of the
// search phase about to run; a no-op without an engine.
func (ev *evaluator) setDerivePool(cands []catalog.Structure) {
	if ev.drv == nil {
		return
	}
	pool := make([]derive.Keyed, 0, len(cands))
	for _, s := range cands {
		pool = append(pool, derive.Keyed{Key: s.Key(), Structure: s})
	}
	ev.drv.SetPool(pool)
}

// bumpDeriveEpoch invalidates plan skeletons after statistics creation; a
// no-op without an engine.
func (ev *evaluator) bumpDeriveEpoch() { ev.drv.BumpEpoch() }

// verifyDerived cross-checks a derived cost against a real optimizer call
// (Mode Verify only). The cross-check call runs under the session's retry
// policy but outside its what-if accounting: it is diagnostic load, not
// part of producing the recommendation, so ev.calls, the tracker, and the
// circuit breaker stay untouched — dta_derive_verify_total records it. A
// cross-check the backend cannot answer (faults exhausted retries) is
// counted and skipped; a cost divergence beyond derive.VerifyTolerance
// fails the evaluation.
func (ev *evaluator) verifyDerived(i int, cfg *catalog.Configuration, res derive.Result) error {
	if ev.drv.Mode() != derive.Verify {
		return nil
	}
	tr := ev.tr
	real, err := fault.Do(tr.doCtx(), tr.retryPolicy(), func() (float64, error) {
		if err := tr.inject(fault.SiteWhatIf); err != nil {
			return 0, err
		}
		c, _, err := ev.t.WhatIfCost(ev.events[i].Stmt, cfg)
		return c, err
	}, nil)
	if err != nil {
		ev.drv.VerifyOutcome(false, err)
		return nil
	}
	diff := math.Abs(real - res.Cost)
	scale := math.Max(math.Abs(real), math.Abs(res.Cost))
	if diff > derive.VerifyTolerance*math.Max(scale, 1) {
		ev.drv.VerifyOutcome(false, nil)
		return fmt.Errorf("derive: verify mismatch on event %d: derived cost %.9g, real what-if cost %.9g", i, res.Cost, real)
	}
	ev.drv.VerifyOutcome(true, nil)
	return nil
}

// whatIfCall issues a cache-miss leader's optimizer call under the session's
// retry policy and fault injector. Every attempt — retries included — is
// charged to the session's what-if accounting (ev.calls and the tracker),
// feeds the circuit breaker, and increments dta_retries_total, so the
// reported call count reflects the real load placed on the backend. With
// wantAlts set (the backend is then an AlternativesTuner) the same single
// call also returns the statement's plan skeleton.
func (ev *evaluator) whatIfCall(i int, cfg *catalog.Configuration, wantAlts bool) (float64, []string, *optimizer.Alternatives, error) {
	type res struct {
		cost float64
		used []string
		alts *optimizer.Alternatives
	}
	tr := ev.tr
	r, err := fault.Do(tr.doCtx(), tr.retryPolicy(), func() (res, error) {
		ev.calls.Add(1)
		tr.countCall()
		if err := tr.inject(fault.SiteWhatIf); err != nil {
			return res{}, err
		}
		if wantAlts {
			c, used, alts, err := ev.t.(AlternativesTuner).WhatIfAlternativesCost(ev.events[i].Stmt, cfg)
			return res{cost: c, used: used, alts: alts}, err
		}
		c, used, err := ev.t.WhatIfCost(ev.events[i].Stmt, cfg)
		return res{cost: c, used: used}, err
	}, func(_ int, err error) {
		tr.attemptDone(fault.SiteWhatIf, err)
	})
	return r.cost, r.used, r.alts, err
}

// count increments a cached cache-behaviour counter (nil without metrics).
func (ev *evaluator) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// skippedEvents counts workload events that could not be analyzed against
// the catalog and are therefore excluded from tuning.
func (ev *evaluator) skippedEvents() int {
	n := 0
	for _, info := range ev.infos {
		if info.q == nil {
			n++
		}
	}
	return n
}

// configCost returns the weighted workload cost under cfg. The per-event
// costs are independent, so they are evaluated on the worker pool; the sum
// is then folded sequentially in event order, because float addition is not
// associative and the total must not depend on scheduling.
func (ev *evaluator) configCost(cfg *catalog.Configuration) (float64, error) {
	pc := ev.prepareConfig(cfg)
	n := len(ev.events)
	costs := make([]float64, n)
	errs := make([]error, n)
	ev.pool().each(n, func(i int) {
		costs[i], _, errs[i] = ev.eventCost(i, pc)
	})
	var total float64
	for i, e := range ev.events {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += ev.eventWeight(i, e) * costs[i]
	}
	return total, nil
}

// eventWeight returns event i's effective weight: its workload weight,
// scaled by the session's slice multiplier when one is set.
func (ev *evaluator) eventWeight(i int, e *workload.Event) float64 {
	if ev.weights != nil {
		return ev.weights[i]
	}
	return e.Weight
}

// applySliceWeights installs per-event effective weights from a
// template-signature → multiplier map (Constraints.SliceWeights). A nil or
// empty map clears the override. Must be called between parallel sections,
// before the search phase that should observe the new weights.
func (ev *evaluator) applySliceWeights(mult map[string]float64) {
	if len(mult) == 0 {
		ev.weights = nil
		return
	}
	ev.weights = make([]float64, len(ev.events))
	for i, e := range ev.events {
		w := e.Weight
		if m, ok := mult[e.Signature()]; ok {
			w *= m
		}
		ev.weights[i] = w
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		pos--
		b[pos] = '-'
	}
	return string(b[pos:])
}
