package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// evaluator computes workload costs under configurations, keyed per event by
// the subset of configuration structures that can possibly affect the event.
// Two configurations differing only in structures irrelevant to an event
// share the event's cost, which is what makes Greedy(m,k) over thousands of
// configurations affordable.
//
// With a derivation engine every evaluation, join or flat, takes no memo: it
// is answered by the engine, whose fact store is the single-flight layer
// (see derive.Engine.Find), and a later phase reuses an earlier one's facts
// through the barrier setQueryPools sets. The evaluator keeps, per event,
// the facts the engine handed its evaluations since the last barrier — its
// slots (see fromSlot) — and answers every evaluation in a slot's answer set
// from the slot, without the engine's lock, top, list scan or channel: what
// the engine would answer from the same fact without a fetch, so the
// fetches, and the costs, are the engine's. Only the first touch of a top,
// and what no slot answers, reach the engine. Only over a skeleton-less
// backend does the evaluator keep a per-event cost cache (costTable): that
// plain real-call evaluator is the oracle the equivalence tests compare
// derivation against.
//
// Everything on the search's hot path is dense: every structure is interned
// to a small integer ID (the interner is shared with the derivation engine)
// together with the set of events it can affect, a configuration is the
// ID-sorted list of its interned structures, and an event's key is that list
// masked by the event's relevance, built in a stack buffer. A configuration
// grown or shrunk from a costed parent re-costs only the events one of the
// changed structures can affect (see child), in per-worker scratch: a
// frontier allocates only what its reduction keeps, and counts its derived
// evaluations once per child.
//
// Both layers are concurrency-safe and single-flight: when several pool
// workers ask for the same skeleton (or, without an engine, the same key),
// the first issues the one optimizer call while the rest wait for it — so
// the what-if call count of a run is independent of its parallelism. The
// immutable per-event analysis (eventInfo) is precomputed at construction
// and only read afterwards.
type evaluator struct {
	t      Tuner
	events []*workload.Event
	infos  []*eventInfo
	// all is the whole-workload scope the workload cost folds over.
	all *scope

	// in interns structure keys (shared with drv when there is one);
	// structs and variants hold the evaluator's per-ID analysis, grown under
	// smu as new structures appear. tableEvents lists the events touching
	// each table; words is the length of an eventSet.
	in          *derive.Interner
	smu         sync.RWMutex
	structs     []*structInfo
	variants    map[[2]int32]*structInfo
	tableEvents map[string][]int
	words       int

	// tables holds one cost table per event, only without an engine: the
	// oracle's memo of its real calls.
	tables []costTable

	// additive holds, per event, the IDs of its additive pool subset that
	// derivation tops add (see setQueryPools); only with an engine.
	additive [][]int32

	// slots holds, per event, the facts the engine handed this phase's
	// evaluations of it, newest first, at most maxSlots (see fromSlot); only
	// with an engine. Dropped at every phase barrier (setQueryPools) and
	// statistics epoch (bumpEpoch).
	slots []atomic.Pointer[slotNode]

	// frontiers recycles the per-worker scratch of frontier evaluations
	// (see frontierScratch).
	frontiers sync.Pool

	// verified remembers, in Verify mode only, the real cost of every
	// (event, key) the cross-check has called in the current statistics
	// epoch (see verifyDerived), under vmu.
	vmu      sync.Mutex
	verified map[string]float64

	// tr carries the session's cancellation signal, progress accounting,
	// and worker pool; cache misses check it before reaching the optimizer
	// so a cancelled session stops within one what-if call per worker.
	tr *tracker

	// drv is the session's cost-derivation engine, present iff the backend
	// returns plan skeletons (AlternativesTuner): every evaluation resolves
	// its cost through it, and it fetches the skeletons it needs with real
	// calls of its own. Over a skeleton-less backend it is nil and every
	// cache miss is a plain real call — the oracle derivation is tested
	// against.
	drv *derive.Engine

	// weights, when non-nil, overrides each event's workload weight in the
	// workload cost fold (Constraints.SliceWeights). Per-event costs — and
	// therefore cache keys, derive facts, and call counts — never depend
	// on it; only the sequential weighted sum does, which is what lets a
	// revision reweight workload slices without a single new optimizer
	// call. Written only between parallel sections.
	weights []float64

	// Cache-behaviour counters (newEvaluator caches the registry series once
	// so the hot path never takes registry locks); all nil without metrics.
	// mDerived counts evaluations answered by replay: no optimizer call
	// happened for them, so neither the tracker's call accounting nor the
	// circuit breaker hears about them (the skeleton fetch behind one
	// accounted for itself).
	mHits, mMisses, mCoalesced, mDerived *obs.Counter
}

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

// relevance classifies a structure for the (analyzed) event: static when it
// can change the event's plan or cost in every configuration that holds it,
// cond when — a partitioning whose column the event does not reference — it
// does so only beside a clustered index on its table, whose output order the
// partitioning destroys (the aligned clustered index is partitioned with the
// table).
func (info *eventInfo) relevance(s catalog.Structure) (static, cond bool) {
	switch {
	case s.Index != nil:
		ix := s.Index
		if !info.tables[ix.Table] {
			return false, false
		}
		// A query plan can only change if the index is seekable on a
		// referenced column, covers a scope, or is clustered (the clustered
		// index is the table itself). DML statements feel every index on the
		// target table through update overhead.
		return info.isDML || ix.Clustered || info.refCols[ix.Table+"."+ix.KeyColumns[0]] || info.coversAnyScope(ix), false
	case s.View != nil:
		if info.isDML {
			return s.View.References(info.target), false
		}
		return info.viewRelevant(s.View), false
	default:
		if !info.tables[s.PartTable] {
			return false, false
		}
		// Partitioning affects query plans through elimination on a
		// referenced column, or by destroying a clustered index's order.
		if info.refCols[s.PartTable+"."+s.Part.Column] {
			return true, false
		}
		return false, true
	}
}

// eventSet is a bitset over workload event indexes.
type eventSet []uint64

func (s eventSet) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s eventSet) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
func (s eventSet) or(o eventSet) {
	for w := range s {
		s[w] |= o[w]
	}
}

// structKind classifies an interned structure.
type structKind uint8

const (
	kindIndex structKind = iota
	kindClustered
	kindView
	kindPart
)

// structInfo is the evaluator's analysis of one interned structure,
// computed once when the structure first appears and immutable afterwards:
// its canonical key, kind, owning table, storage, and the events it is
// relevant to (eventInfo.relevance, precomputed per event).
type structInfo struct {
	id int32
	derive.Keyed
	kind    structKind
	table   string // owning table ("" for views)
	storage int64
	rel     eventSet
	cond    eventSet
}

// newEvaluator analyzes the workload and, iff the backend can return plan
// skeletons, installs a derivation engine in the given mode ("" = on). It
// binds the session tracker tr: the evaluator runs on tr's worker pool, under
// its stop protocol and call accounting; its Progress snapshots read the
// engine's counters. The cost-cache metric series are cached here from tr's
// registry.
func newEvaluator(t Tuner, w *workload.Workload, mode derive.Mode, tr *tracker) *evaluator {
	n := len(w.Events)
	ev := &evaluator{
		t: t, events: w.Events, tr: tr,
		all:         &scope{events: make([]int, n)},
		variants:    map[[2]int32]*structInfo{},
		tableEvents: map[string][]int{},
		words:       (n + 63) / 64,
	}
	if _, ok := t.(AlternativesTuner); ok {
		ev.drv = derive.New(mode)
		ev.in = ev.drv.Interner()
		ev.additive = make([][]int32, n)
		ev.slots = make([]atomic.Pointer[slotNode], n)
		if ev.drv.Mode() == derive.Verify {
			ev.verified = map[string]float64{}
		}
	} else {
		ev.in = derive.NewInterner()
		ev.tables = make([]costTable, n)
		for i := range ev.tables {
			ev.tables[i].entries = map[string]*cacheEntry{}
		}
	}
	for i, e := range w.Events {
		ev.all.events[i] = i
		info := &eventInfo{tables: map[string]bool{}, refCols: map[string]bool{}, required: map[string][][]string{}}
		if q, err := optimizer.Analyze(t.Catalog(), e.Stmt); err == nil {
			info.q = q
			for _, s := range q.Scopes {
				if !info.tables[s.Table.Name] {
					ev.tableEvents[s.Table.Name] = append(ev.tableEvents[s.Table.Name], i)
				}
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
	tr.drv = ev.drv
	if reg := tr.metrics; reg != nil {
		const help = "What-if cost evaluations by outcome: real optimizer calls (misses, skeleton fetches included), evaluations answered by skeleton replay (derived: every evaluation with a derivation engine), and, over a skeleton-less backend only, served cache hits and waits coalesced onto another worker's in-flight entry."
		ev.mHits = reg.Counter("dta_cost_cache_requests_total", help, "outcome", "hit")
		ev.mMisses = reg.Counter("dta_cost_cache_requests_total", help, "outcome", "miss")
		ev.mCoalesced = reg.Counter("dta_cost_cache_requests_total", help, "outcome", "coalesced")
		ev.mDerived = reg.Counter("dta_cost_cache_requests_total", help, "outcome", "derived")
		ev.drv.AttachMetrics(reg)
	}
	return ev
}

// analyzed returns the analysis of event i (nil if the statement does not
// resolve against the catalog).
func (ev *evaluator) analyzed(i int) *optimizer.QueryInfo { return ev.infos[i].q }

// structure returns the interned analysis of s, computing it on first sight.
// It renders s's key: a structure that already travels with its key is
// interned through intern instead.
func (ev *evaluator) structure(s catalog.Structure) *structInfo {
	return ev.intern(derive.Keyed{Key: s.Key(), Structure: s})
}

// intern returns the interned analysis of a keyed structure, computing it on
// first sight.
func (ev *evaluator) intern(k derive.Keyed) *structInfo {
	key := k.Key
	id, s := ev.in.Intern(key, k.Structure)
	ev.smu.RLock()
	if int(id) < len(ev.structs) && ev.structs[id] != nil {
		x := ev.structs[id]
		ev.smu.RUnlock()
		return x
	}
	ev.smu.RUnlock()

	x := &structInfo{id: id, Keyed: derive.Keyed{Key: key, Structure: s}, rel: make(eventSet, ev.words), cond: make(eventSet, ev.words)}
	var events []int
	switch {
	case s.Index != nil:
		x.kind, x.table, events = kindIndex, s.Index.Table, ev.tableEvents[s.Index.Table]
		if s.Index.Clustered {
			x.kind = kindClustered
		}
	case s.View != nil:
		x.kind, events = kindView, ev.all.events
	default:
		x.kind, x.table, events = kindPart, s.PartTable, ev.tableEvents[s.PartTable]
	}
	x.storage = s.StorageBytes(ev.t.Catalog())
	for _, i := range events {
		if info := ev.infos[i]; info.q != nil {
			static, cond := info.relevance(s)
			if static {
				x.rel.add(i)
			}
			if cond {
				x.cond.add(i)
			}
		}
	}

	ev.smu.Lock()
	defer ev.smu.Unlock()
	for int(id) >= len(ev.structs) {
		ev.structs = append(ev.structs, nil)
	}
	if ev.structs[id] == nil {
		ev.structs[id] = x
	}
	return ev.structs[id]
}

// variant returns index x repartitioned by partitioning p (nil: none) — the
// structure lazy alignment turns x into on a table partitioned by p —
// interned once per (x, p).
func (ev *evaluator) variant(x, p *structInfo) *structInfo {
	k := [2]int32{x.id, -1}
	if p != nil {
		k[1] = p.id
	}
	ev.smu.RLock()
	v, ok := ev.variants[k]
	ev.smu.RUnlock()
	if ok {
		return v
	}
	ix := x.Structure.Index.Clone()
	ix.Partitioning = nil
	if p != nil {
		ix.Partitioning = p.Structure.Part.Clone()
	}
	v = ev.structure(catalog.Structure{Index: ix})
	ev.smu.Lock()
	ev.variants[k] = v
	ev.smu.Unlock()
	return v
}

// config is a configuration in the evaluator's dense form: its interned
// structures sorted by ID. The catalog form every real optimizer call needs
// is materialized lazily — a frontier child is derived from its parent as
// "parent plus one structure" and most children never reach the optimizer
// (their costs come from the cache or by derivation), so most are never
// cloned.
type config struct {
	ents []*structInfo

	once sync.Once
	cfg  *catalog.Configuration
	// from/add/aligned describe a lazy child: from's catalog configuration
	// with add applied (lazily aligned when aligned is set).
	from    *config
	add     catalog.Structure
	aligned bool
}

// catalog returns the configuration's catalog form, materializing it on
// first use. Concurrent callers share one materialization.
func (c *config) catalog() *catalog.Configuration {
	c.once.Do(func() {
		if c.cfg != nil {
			return
		}
		cfg := c.from.catalog().Clone()
		if c.aligned {
			applyAligned(cfg, c.add)
		} else {
			c.add.ApplyTo(cfg)
		}
		c.cfg, c.from = cfg, nil
	})
	return c.cfg
}

// config interns a catalog configuration.
func (ev *evaluator) config(cfg *catalog.Configuration) *config {
	c := &config{cfg: cfg}
	for _, s := range cfg.Structures() {
		c.ents = append(c.ents, ev.structure(s))
	}
	c.ents = sortEnts(c.ents)
	return c
}

// sortEnts sorts structures by ID and drops duplicates.
func sortEnts(ents []*structInfo) []*structInfo {
	slices.SortFunc(ents, func(a, b *structInfo) int { return int(a.id) - int(b.id) })
	return slices.CompactFunc(ents, func(a, b *structInfo) bool { return a == b })
}

// has reports whether the configuration holds x.
func (c *config) has(x *structInfo) bool {
	_, ok := slices.BinarySearchFunc(c.ents, x.id, func(e *structInfo, id int32) int { return int(e.id) - int(id) })
	return ok
}

// clusteredOn reports whether the configuration holds a clustered index on
// the table.
func (c *config) clusteredOn(table string) bool {
	for _, x := range c.ents {
		if x.kind == kindClustered && x.table == table {
			return true
		}
	}
	return false
}

// partOn returns the configuration's partitioning of the table, or nil.
func (c *config) partOn(table string) *structInfo {
	for _, x := range c.ents {
		if x.kind == kindPart && x.table == table {
			return x
		}
	}
	return nil
}

// storage returns the extra storage of the configuration's structures.
func (c *config) storage() int64 {
	var b int64
	for _, x := range c.ents {
		b += x.storage
	}
	return b
}

// affects reports whether x, one of the configuration's structures, can
// affect event i under it.
func (c *config) affects(x *structInfo, i int) bool {
	return x.rel.has(i) || (x.cond.has(i) && c.clusteredOn(x.table))
}

// key appends to buf the IDs of the structures that can affect event i under
// this configuration — the event's key.
func (c *config) key(i int, buf []int32) []int32 {
	for _, x := range c.ents {
		if c.affects(x, i) {
			buf = append(buf, x.id)
		}
	}
	return buf
}

// extend returns the configuration p with candidate s (interned as x)
// applied — mirroring Structure.ApplyTo, or applyAligned when aligned is set
// — or false when applying it changes nothing. The child's catalog form is
// materialized lazily from p's.
func (ev *evaluator) extend(p *config, s catalog.Structure, x *structInfo, aligned bool) (*config, bool) {
	ents, ok := ev.grow(p, x, aligned, make([]*structInfo, 0, len(p.ents)+1))
	if !ok {
		return nil, false
	}
	return &config{ents: ents, from: p, add: s, aligned: aligned}, true
}

// grow appends to buf the structures of p with x applied, sorted by ID — the
// structures of extend's child — or reports false when applying x changes
// nothing.
func (ev *evaluator) grow(p *config, x *structInfo, aligned bool, buf []*structInfo) ([]*structInfo, bool) {
	ents := append(buf, p.ents...)
	switch x.kind {
	case kindIndex, kindClustered:
		if aligned {
			x = ev.variant(x, p.partOn(strings.ToLower(x.table)))
		}
		if p.has(x) || (x.kind == kindClustered && p.clusteredOn(x.table)) {
			return buf, false
		}
		ents = append(ents, x)
	case kindView:
		if p.has(x) {
			return buf, false
		}
		ents = append(ents, x)
	case kindPart:
		old := p.partOn(x.table)
		if old == x {
			return buf, false
		}
		for j, e := range ents {
			switch {
			case e == old:
				ents[j] = x
			case aligned && e.table == x.table && (e.kind == kindIndex || e.kind == kindClustered):
				// Repartition every index already chosen on the table.
				ents[j] = ev.variant(e, x)
			}
		}
		if old == nil {
			ents = append(ents, x)
		}
	}
	return sortEnts(ents), true
}

// costTable is one event's slice of the oracle's cost cache (a
// skeleton-less backend's): entries keyed by their ID list's bytes (idKey),
// under mu, and the entries of the previous statistics epoch (stale, see
// bumpEpoch), written only between parallel sections.
type costTable struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	stale   map[string]*cacheEntry
}

// cacheEntry is one single-flight cost slot. The leader that created the
// entry fills cost/err and then closes ready; concurrent readers of the
// same key block on ready instead of issuing a duplicate optimizer call. A
// failed entry is removed from the table before ready closes, so a later
// call (the finishing-mode retry after a cancelled search) computes it
// afresh.
type cacheEntry struct {
	ready chan struct{}
	cost  float64
	err   error
}

// idKey appends ids to b as little-endian bytes: a map key spelling an ID
// list, which a lookup converts to a string without allocating.
func idKey(b []byte, ids []int32) []byte {
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// eval evaluates event i under configuration c and counts the evaluation —
// the evaluator's one evaluation entry: every search, costing, report, and
// checkpoint path reads per-event costs through it or through evaluate,
// whose callers count a batch of evaluations at once (costAll, child).
func (ev *evaluator) eval(i int, c *config, span context.Context) (float64, error) {
	cost, derived, err := ev.evaluate(i, c, span)
	if derived {
		ev.countDerived(1)
	}
	return cost, err
}

// evaluate evaluates event i under c, uncounted: derived reports an
// evaluation answered by the engine, which the caller counts (countDerived).
// span parents the what-if spans a fetch or miss opens (nil: the tracker's
// phase span). With an engine every evaluation resolves through it
// (derived); without one it is served by the oracle's cost cache. An
// evaluation against a ready fact, and a cache hit, allocate nothing.
func (ev *evaluator) evaluate(i int, c *config, span context.Context) (cost float64, derived bool, err error) {
	if ev.infos[i].q == nil {
		// The statement does not resolve against the catalog (e.g. it
		// references objects of a database not being tuned); it is skipped
		// rather than failing the whole tuning session.
		return 0, false, nil
	}
	if ev.drv != nil {
		cost, err = ev.derived(i, c, span)
		return cost, err == nil, err
	}
	var buf [64]int32
	var kb [256]byte
	key := idKey(kb[:0], c.key(i, buf[:0]))
	t := &ev.tables[i]
	t.mu.RLock()
	ce := t.entries[string(key)]
	t.mu.RUnlock()
	if ce == nil {
		k := string(key)
		t.mu.Lock()
		if ce = t.entries[k]; ce == nil {
			// This goroutine leads: it issues the key's one call.
			ce = &cacheEntry{ready: make(chan struct{})}
			t.entries[k] = ce
			t.mu.Unlock()
			cost, err = ev.miss(i, c, k, ce, span)
			return cost, false, err
		}
		t.mu.Unlock()
	}
	select {
	case <-ce.ready:
		ev.count(ev.mHits)
	default:
		// Another worker is mid-flight on this key: wait for its result
		// instead of issuing a duplicate optimizer call.
		ev.count(ev.mCoalesced)
		<-ce.ready
	}
	return ce.cost, false, ce.err
}

// countDerived counts n evaluations answered by the engine, with one update
// of each shared counter (derive.Engine.Derived and the derived outcome of
// dta_cost_cache_requests_total).
func (ev *evaluator) countDerived(n int) {
	if n <= 0 || ev.drv == nil {
		return
	}
	ev.drv.Derived(n)
	if ev.mDerived != nil {
		ev.mDerived.Add(float64(n))
	}
}

// derived costs event i under c through the engine: the one path of every
// evaluation with an engine, which takes no cost-cache entry. An evaluation
// in the answer set of a slot the engine handed an earlier evaluation of the
// event is answered from it (fromSlot); every other one — the first touch of
// a top, one after a failed fetch — computes its key and goes to the engine
// (derive.Engine.Find), whose fact store single-flights the fetch behind it,
// and keeps the fact handed back in the event's slots. A stopped session
// without a slot answers from facts alone (see halted). A failed skeleton
// fetch fails the evaluation as it is: its retries were the whole load the
// failure may put on the backend.
func (ev *evaluator) derived(i int, c *config, span context.Context) (float64, error) {
	if cost, ok := ev.fromSlot(i, c); ok {
		if slotAnswered != nil {
			slotAnswered(ev, i, c, cost)
		}
		return cost, ev.verifyDerived(i, c, nil, cost)
	}
	var buf [64]int32
	ids := c.key(i, buf[:0])
	cost, ok, err := ev.halted(i, ids)
	if !ok && err == nil {
		var s derive.Slot
		if s, err = ev.find(i, ids, span); err == nil {
			if cost, err = s.Replay(i, ids); err == nil {
				ev.keep(i, s)
				err = ev.verifyDerived(i, c, ids, cost)
			}
		}
	}
	if err != nil {
		return 0, err
	}
	return cost, nil
}

// slotAnswered, when set (tests only), observes every evaluation a slot
// answered: the event, the configuration and the cost.
var slotAnswered func(ev *evaluator, i int, c *config, cost float64)

// maxSlots bounds an event's slots: a few per base part the phase's
// configurations give the event (clustered-index and partitioning
// candidates change it), settled facts beside facts of the running phase.
// The benchmark workloads keep at most 17 facts for an event in one phase
// (tpch-fleet, with every feature; psoft-mixed 10, synt1-batch and
// daemon-drift 3), so no list of theirs fills. A full list starts over from
// the newest slot, and an evaluation no slot answers goes to the engine.
const maxSlots = 32

// slotNode is one slot of an event's list, newest first; a node is never
// changed once published, so readers need no lock.
type slotNode struct {
	s    derive.Slot
	n    int // slots in the list from this node on
	next *slotNode
}

// fromSlot answers event i under c from the event's slots — the facts the
// engine handed its earlier evaluations since the last phase barrier —
// when c is in a slot's answer set (derive.Slot): one walk over c's
// structures against the slot's top marks the top positions the event's key
// holds, with no key slice, top, lock, map or channel. The answer is
// exactly the engine's: a slot answers only what Find would answer from the
// same fact without a fetch. ok is false when no slot answers.
func (ev *evaluator) fromSlot(i int, c *config) (float64, bool) {
	for n := ev.slots[i].Load(); n != nil; n = n.next {
		if cost, ok := slotAnswer(n.s, c, i); ok {
			return cost, true
		}
	}
	return 0, false
}

// slotAnswer answers event i under c from slot s: every structure of c that
// can affect the event must be in the slot's top, and the slot answers the
// top positions they hold.
func slotAnswer(s derive.Slot, c *config, i int) (float64, bool) {
	top := s.Top()
	var buf [128]bool
	held := buf[:]
	if len(top) > len(held) {
		held = make([]bool, len(top))
	}
	p := 0
	for _, x := range c.ents {
		if !c.affects(x, i) {
			continue
		}
		for p < len(top) && top[p] < x.id {
			p++
		}
		if p == len(top) || top[p] != x.id {
			return 0, false
		}
		held[p] = true
	}
	return s.Answer(held[:len(top)])
}

// keep adds a slot the engine handed an evaluation of event i to the front
// of the event's slots, unless they hold its fact already; a full list
// starts over from the new slot. Of two workers keeping a slot at once, one's
// is kept.
func (ev *evaluator) keep(i int, s derive.Slot) {
	p := &ev.slots[i]
	old := p.Load()
	for n := old; n != nil; n = n.next {
		if n.s.Same(s) {
			return
		}
	}
	node := &slotNode{s: s, n: 1}
	if old != nil && old.n < maxSlots {
		node.n, node.next = old.n+1, old
	}
	p.CompareAndSwap(old, node)
}

// halted answers an evaluation of a cancelled or degraded session from the
// engine's facts alone (derive.Engine.Lookup: a ready current-epoch fact
// covering ids, else one of the previous statistics epoch), so its
// best-so-far result is measured without loading a backend it has given up
// on. A stopped session that finds none gets errStopped. In finishing mode,
// which must cost the final configuration, a cancelled or degraded session
// tries the lookup first and otherwise (ok false, no error) goes on to
// fetch. A running session is never answered here.
func (ev *evaluator) halted(i int, ids []int32) (cost float64, ok bool, err error) {
	tr := ev.tr
	stopped := tr.ctxStopped()
	if !stopped && !(tr.finishing && tr.halted()) {
		return 0, false, nil
	}
	if cost, ok = ev.drv.Lookup(i, ids); ok || !stopped {
		return cost, ok, nil
	}
	return 0, false, errStopped
}

// miss is the oracle's cache-miss leader's path: this goroutine owns the
// entry under key and issues the one real call behind it.
func (ev *evaluator) miss(i int, c *config, key string, ce *cacheEntry, span context.Context) (float64, error) {
	var cost float64
	var err error
	if ev.tr.ctxStopped() {
		// A cancelled or degraded session measures its best-so-far result
		// with a cost of the previous statistics epoch where it has one.
		err = errStopped
		if old := ev.tables[i].stale[key]; old != nil && old.err == nil {
			cost, err = old.cost, nil
		}
	} else {
		cost, _, _, err = ev.realCall(i, c.catalog(), false, span)
	}
	if err != nil {
		ce.err = err
		t := &ev.tables[i]
		t.mu.Lock()
		delete(t.entries, key)
		t.mu.Unlock()
	}
	ce.cost = cost
	close(ce.ready)
	return cost, err
}

// find hands back the engine's fact for event i under the configuration
// whose structures relevant to it are ids: the skeleton behind it, if not
// held yet, is fetched with one accounted real call (see realCall).
func (ev *evaluator) find(i int, ids []int32, span context.Context) (derive.Slot, error) {
	return ev.drv.Find(i, len(ev.infos[i].q.Scopes) > 1, ids, ev.additive[i], func(top *catalog.Configuration) (*optimizer.Alternatives, error) {
		_, _, alts, err := ev.realCall(i, top, true, span)
		return alts, err
	})
}

// used returns the keys of the structures event i's plan uses under c, for
// the per-query report, which evaluates c first: replayed from a
// current-epoch fact that covers the event's key (the one that cost was
// resolved from does), or, over a skeleton-less backend, from one accounted
// real call. (Only a cancelled or degraded session reads costs of an older
// epoch, and it writes no report.)
func (ev *evaluator) used(i int, c *config) ([]string, error) {
	if ev.infos[i].q == nil {
		return nil, nil
	}
	if ev.drv == nil {
		_, used, _, err := ev.realCall(i, c.catalog(), false, nil)
		return used, err
	}
	used, ok := ev.drv.Used(i, c.key(i, nil))
	if !ok {
		return nil, fmt.Errorf("core: event %d: no skeleton fact covers its reported configuration", i)
	}
	return used, nil
}

// realCall issues one accounted optimizer call — a cache-miss leader's own,
// or the derivation engine's skeleton fetch (wantAlts) — inside a what-if
// span, and maps its failure onto the session's stop protocol: errStopped
// when the session is winding down or degrades because of it, the backend's
// error when the call was critical.
func (ev *evaluator) realCall(i int, cfg *catalog.Configuration, wantAlts bool, span context.Context) (float64, []string, *optimizer.Alternatives, error) {
	ev.count(ev.mMisses)
	_, sp := obs.StartSpan(ev.spanParent(span), "whatif", "what-if")
	c, used, alts, err := ev.whatIfCall(i, cfg, wantAlts)
	if err != nil {
		sp.SetInt("event", i).SetString("error", err.Error()).End()
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
	sp.SetInt("event", i).SetFloat("cost", c).End()
	return c, used, alts, nil
}

// setQueryPools installs the candidate pools derivation tops draw their
// additive part from: event i's top adds the structures of pools[i] (the
// additive ones, see additivePool) that are statically relevant to it, and
// events beyond len(pools) add none. Candidate selection gives every event
// its own pool, the one its Greedy(m,k) draws from, so the per-query
// searches running concurrently never share or swap one; enumeration gives
// every event the same pool. Each event's subset is computed here, so the
// advisor must call it at a deterministic phase boundary, between parallel
// sections: that keeps every top, and hence the set of real calls issued,
// independent of scheduling. It is also the engine's phase barrier
// (derive.Engine.Settle): every fact ready now may answer any later request
// it covers, so a later phase reuses what an earlier one computed; the
// slots, whose answer sets the barrier and the new pools change, are
// dropped. A no-op without an engine.
func (ev *evaluator) setQueryPools(pools [][]*structInfo) {
	if ev.drv == nil {
		return
	}
	ev.drv.Settle()
	ev.dropSlots()
	for i := range ev.additive {
		ev.additive[i] = nil
		if i >= len(pools) {
			continue
		}
		for _, x := range pools[i] {
			if x.rel.has(i) {
				ev.additive[i] = append(ev.additive[i], x.id)
			}
		}
	}
}

// additivePool interns a candidate pool and returns its additive structures
// (non-clustered indexes and views), ascending by ID.
func (ev *evaluator) additivePool(cands []derive.Keyed) []*structInfo {
	var pool []*structInfo
	for _, s := range cands {
		if x := ev.intern(s); x.kind == kindIndex || x.kind == kindView {
			pool = append(pool, x)
		}
	}
	return sortEnts(pool)
}

// sharedPools interns one candidate pool and returns it as every event's:
// enumeration's setQueryPools argument.
func (ev *evaluator) sharedPools(cands []derive.Keyed) [][]*structInfo {
	shared := ev.additivePool(cands)
	pools := make([][]*structInfo, len(ev.events))
	for i := range pools {
		pools[i] = shared
	}
	return pools
}

// bumpEpoch scopes costing to new statistics: the engine starts a new
// skeleton scope, the slots holding the old one's facts are dropped and
// Verify's remembered real costs are forgotten, or,
// without an engine, the cost cache empties, so every later cost — the
// baseline included — shares the recommendation's statistics. A session
// that stops before re-costing an evaluation reads the old epoch's facts
// from the engine (see halted); without an engine, the old entries stay as
// stale for it (see miss). Called between parallel sections.
func (ev *evaluator) bumpEpoch() {
	ev.drv.BumpEpoch()
	ev.dropSlots()
	clear(ev.verified)
	for i := range ev.tables {
		t := &ev.tables[i]
		t.stale, t.entries = t.entries, map[string]*cacheEntry{}
	}
}

// dropSlots forgets every event's slots. Called between parallel sections.
func (ev *evaluator) dropSlots() {
	for i := range ev.slots {
		ev.slots[i].Store(nil)
	}
}

// verifyDerived cross-checks a derived cost of event i under c, whose key is
// ids (nil: computed here; Mode Verify only) — a slot's answer as well as a
// Find's: first against every other ready fact covering the
// key, bit for bit (derive.Engine.CheckCovering: any settled one may answer
// it), then against the real optimizer's cost of the key, called once per
// (event, key) and statistics epoch and remembered in verified; every
// derived cost is compared against the remembered one. The cross-check call
// runs under the session's retry policy but outside its what-if
// accounting: it is diagnostic load, not part of producing the
// recommendation, so the tracker and the circuit breaker stay untouched —
// dta_derive_verify_total records it. Two workers may both call a key
// neither has remembered yet; both get the same answer. A cross-check the
// backend cannot answer (faults exhausted retries) is counted and skipped; a
// covering fact that disagrees, or a cost divergence beyond
// derive.VerifyTolerance, fails the evaluation.
func (ev *evaluator) verifyDerived(i int, c *config, ids []int32, cost float64) error {
	if ev.drv.Mode() != derive.Verify {
		return nil
	}
	if ids == nil {
		ids = c.key(i, nil)
	}
	if _, err := ev.drv.CheckCovering(i, ids, cost); err != nil {
		return err
	}
	var kb [260]byte
	key := idKey(binary.LittleEndian.AppendUint32(kb[:0], uint32(i)), ids)
	ev.vmu.Lock()
	real, ok := ev.verified[string(key)]
	ev.vmu.Unlock()
	if !ok {
		tr := ev.tr
		var err error
		real, err = fault.Do(tr.ctx, tr.retryPolicy(), func() (float64, error) {
			if err := tr.inject(fault.SiteWhatIf); err != nil {
				return 0, err
			}
			c, _, err := ev.t.WhatIfCost(ev.events[i].Stmt, c.catalog())
			return c, err
		}, nil)
		if err != nil {
			ev.drv.VerifyOutcome(false, err)
			return nil
		}
		ev.vmu.Lock()
		ev.verified[string(key)] = real
		ev.vmu.Unlock()
	}
	diff := math.Abs(real - cost)
	scale := math.Max(math.Abs(real), math.Abs(cost))
	if diff > derive.VerifyTolerance*math.Max(scale, 1) {
		ev.drv.VerifyOutcome(false, nil)
		return fmt.Errorf("derive: verify mismatch on event %d: derived cost %.9g, real what-if cost %.9g", i, cost, real)
	}
	ev.drv.VerifyOutcome(true, nil)
	return nil
}

// whatIfCall issues a cache-miss leader's optimizer call under the session's
// retry policy and fault injector. Every attempt — retries included — is
// charged to the session's what-if accounting (the tracker's call count),
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
	r, err := fault.Do(tr.ctx, tr.retryPolicy(), func() (res, error) {
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

// scope is the set of events one cost function folds over: the whole
// workload (weighted sum in event order) or, for a per-query candidate
// selection, a single event (its unweighted cost). span, when set, parents
// the spans of the scope's evaluations (nil: the tracker's phase span) —
// per-query searches run concurrently, so each carries its own.
type scope struct {
	events []int
	single bool
	span   context.Context
}

// eventScope is the per-query scope of event i, its spans nested under span.
func eventScope(i int, span context.Context) *scope {
	return &scope{events: []int{i}, single: true, span: span}
}

// under returns the scope with its evaluations' spans nested under span.
func (sc *scope) under(span context.Context) *scope {
	c := *sc
	c.span = span
	return &c
}

// spanParent resolves a span parent: span itself, or the tracker's phase
// span when nil.
func (ev *evaluator) spanParent(span context.Context) context.Context {
	if span != nil {
		return span
	}
	return ev.tr.sctx
}

// costed is a configuration with its per-event costs over a scope (indexed
// like scope.events) and their fold — the state a Greedy(m,k) frontier or a
// drop round grows its children from.
type costed struct {
	c     *config
	costs []float64
	total float64
}

// override is one re-costed event of a child configuration (pos indexes
// scope.events).
type override struct {
	pos  int
	cost float64
}

// costAll evaluates every event of the scope under c. The per-event costs
// are independent, so they are evaluated on the worker pool; the fold then
// runs sequentially in event order, because float addition is not
// associative and the total must not depend on scheduling. The derived
// evaluations are counted once, after the pool returns.
func (ev *evaluator) costAll(sc *scope, c *config) (*costed, error) {
	n := len(sc.events)
	costs := make([]float64, n)
	derived := make([]bool, n)
	errs := make([]error, n)
	ev.tr.pool.each(n, func(p int) {
		costs[p], derived[p], errs[p] = ev.evaluate(sc.events[p], c, sc.span)
	})
	k := 0
	for _, d := range derived {
		if d {
			k++
		}
	}
	ev.countDerived(k)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &costed{c: c, costs: costs, total: ev.fold(sc, costs, nil)}, nil
}

// scratch is one pool worker's reusable memory for the children of a
// frontier (a Greedy(m,k) sweep or a drop round): the candidate's
// configuration, the events a child touches, and an arena every child's
// overrides are appended to. The frontier's reduction reads the overrides
// until it releases the scratch, and copies out only what it keeps
// (costed.with copies a child's overrides into its own costs).
type scratch struct {
	c       config
	touched eventSet
	ov      []override
}

// frontierScratch is one frontier's scratch, one per pool worker (see
// workerPool.eachWorker). A frontier takes its own, so a frontier nested in
// another's reduction (the greedy seed's recursion) never writes over the
// overrides its parent still reads.
type frontierScratch struct{ w []scratch }

// frontier takes a frontier's scratch; the caller releases it once the
// frontier's reduction is done with the overrides.
func (ev *evaluator) frontier() *frontierScratch {
	if fs, ok := ev.frontiers.Get().(*frontierScratch); ok {
		return fs
	}
	return &frontierScratch{w: make([]scratch, ev.tr.pool.size)}
}

// release returns a frontier's scratch for reuse, keeping its memory but
// none of its references.
func (ev *evaluator) release(fs *frontierScratch) {
	for k := range fs.w {
		w := &fs.w[k]
		w.c = config{ents: w.c.ents[:0]}
		w.ov = w.ov[:0]
	}
	ev.frontiers.Put(fs)
}

// child evaluates c, a configuration derived from the costed parent p: only
// the events whose key can differ between the two — those a structure in
// their symmetric difference is relevant to — are re-costed; every other
// event carries p's cost, which is exactly what its unchanged key evaluates
// to. The total is folded over all events in event order, so it is
// bit-identical to a from-scratch evaluation. The overrides are appended to
// the worker's arena w.ov and returned as that part of it; the derived
// evaluations are counted once.
func (ev *evaluator) child(sc *scope, p *costed, c *config, w *scratch) (float64, []override, error) {
	w.touched = ev.touched(p.c, c, w.touched)
	start, n := len(w.ov), 0
	for pos, i := range sc.events {
		if !w.touched.has(i) {
			continue
		}
		cost, derived, err := ev.evaluate(i, c, sc.span)
		if err != nil {
			ev.countDerived(n)
			return 0, nil, err
		}
		if derived {
			n++
		}
		w.ov = append(w.ov, override{pos, cost})
	}
	ev.countDerived(n)
	ov := w.ov[start:len(w.ov):len(w.ov)]
	return ev.fold(sc, p.costs, ov), ov, nil
}

// touched returns, in t (resized and cleared), the events whose key can
// differ between a and b: those relevant to a structure only one of them
// holds. That covers the one configuration-dependent case too: a clustered
// index is relevant to every event on its table, so adding or removing one
// marks every event its table's partitioning can be conditionally relevant
// to.
func (ev *evaluator) touched(a, b *config, t eventSet) eventSet {
	if len(t) != ev.words {
		t = make(eventSet, ev.words)
	} else {
		clear(t)
	}
	mark := func(x *structInfo) {
		t.or(x.rel)
		t.or(x.cond)
	}
	i, j := 0, 0
	for i < len(a.ents) || j < len(b.ents) {
		switch {
		case j == len(b.ents) || (i < len(a.ents) && a.ents[i].id < b.ents[j].id):
			mark(a.ents[i])
			i++
		case i == len(a.ents) || b.ents[j].id < a.ents[i].id:
			mark(b.ents[j])
			j++
		default:
			i++
			j++
		}
	}
	return t
}

// fold combines per-event costs (with a child's overrides applied) into the
// scope's total. Each weighted term is rounded before it is added (the
// explicit conversion forbids a fused multiply-add), so the total is the
// same on every architecture.
func (ev *evaluator) fold(sc *scope, costs []float64, ov []override) float64 {
	if sc.single {
		if len(ov) > 0 {
			return ov[0].cost
		}
		return costs[0]
	}
	var total float64
	k := 0
	for pos, i := range sc.events {
		c := costs[pos]
		if k < len(ov) && ov[k].pos == pos {
			c = ov[k].cost
			k++
		}
		total += float64(ev.eventWeight(i) * c)
	}
	return total
}

// with returns the costed child of p with configuration c, total and
// overrides as child computed them.
func (p *costed) with(c *config, total float64, ov []override) *costed {
	costs := slices.Clone(p.costs)
	for _, o := range ov {
		costs[o.pos] = o.cost
	}
	return &costed{c: c, costs: costs, total: total}
}

// configCost returns the weighted workload cost under cfg.
func (ev *evaluator) configCost(cfg *catalog.Configuration) (float64, error) {
	cs, err := ev.costAll(ev.all, ev.config(cfg))
	if err != nil {
		return 0, err
	}
	return cs.total, nil
}

// eventWeight returns event i's effective weight: its workload weight,
// scaled by the session's slice multiplier when one is set.
func (ev *evaluator) eventWeight(i int) float64 {
	if ev.weights != nil {
		return ev.weights[i]
	}
	return ev.events[i].Weight
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
