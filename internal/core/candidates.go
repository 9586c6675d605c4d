package core

import (
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// selectCandidates runs the Candidate Selection step (paper §2.2): for each
// query of the workload it generates syntactically relevant structures,
// creates the statistics needed to simulate them (reduced per §5.2), and
// keeps the structures chosen by a per-query Greedy(m,k) search as
// candidates for the whole workload. Alongside the candidates it returns
// each query's unweighted selection outcome (the QueryGains the search layer
// turns into per-structure benefits under its effective weights) and the
// statistics-creation log (the StatBatches a revision replays on a fresh
// backend). Every candidate carries the key it was generated under
// (derive.Keyed) through the search and into the returned pool, so no
// structure is re-keyed downstream.
//
// This is the heart of the costing layer, and it is deliberately
// independent of every search-layer constraint: the per-query search runs
// against the base configuration only (no pinned structures), with no
// storage budget and the workload's own weights, so its output — and every
// cost it caches — is reusable under any Constraints value a revision
// chooses.
//
// Parallelism note: optimizer cost estimates depend on which statistics
// exist at call time (without a histogram the selectivity model falls back
// to uniform/density guesses), so selection runs in three passes that fix
// the statistics state before any query is costed:
//
//  1. Generate every query's candidates (pure syntax, on the worker pool),
//     then, sequentially in event order, create their statistics — one
//     request batch per query, in issue order — then bump the derive epoch
//     once and install every query's own candidate pool for derivation.
//     This pass issues no what-if call.
//  2. On the session's worker pool: each query's base cost, Greedy(m,k) and
//     best cost (selectQuery). Every query sees the same statistics, so its
//     costs are independent of its position in the workload and of
//     scheduling, and the queries overlap; a query's own frontiers run
//     inline while the pool is busy with other queries.
//  3. Sequentially, in event order: fold the per-query slots into the
//     deduplicated candidate pool, the QueryGains and the session journal,
//     stopping at the first query that did not finish, as a sequential loop
//     would.
func selectCandidates(t Tuner, ev *evaluator, w *workload.Workload, base *catalog.Configuration, groups *columnGroups, opts Options) ([]derive.Keyed, []QueryGain, []StatBatch, int, error) {
	tr := ev.tr
	// k of each query's Greedy(m,k): single queries rarely benefit from
	// more structures.
	const perQueryK = 6

	// Pass 1: candidates — pure syntax, so generated on the pool — then
	// their statistics, in event order. A stop at query n, or a statistics
	// failure there that degrades the session, limits pass 2 to the queries
	// before it, whose statistics exist. (The stop is sticky, so a session
	// stopped here searches none of them.)
	pools := make([][]derive.Keyed, len(w.Events))
	additive := make([][]*structInfo, len(w.Events))
	tr.pool.each(len(w.Events), func(i int) {
		if q := ev.analyzed(i); q != nil {
			pools[i] = generateForQuery(t.Catalog(), q, groups, opts)
			additive[i] = ev.additivePool(pools[i])
		}
	})
	var batches []StatBatch
	statsCreated := 0
	n := len(w.Events)
	for i, cands := range pools {
		if tr.stopped() {
			n = i
			break
		}
		if ev.analyzed(i) == nil {
			continue
		}
		if opts.Metrics != nil {
			opts.Metrics.Histogram("dta_candidates_per_query",
				"Syntactically relevant structures generated per workload event (§2.2).",
				obs.CountBuckets).Observe(float64(len(cands)))
		}
		if len(cands) == 0 {
			continue
		}
		// The request batch is logged in issue order so a revision can
		// replay the exact statistics state on a fresh backend.
		reqs := statRequests(cands)
		created, err := ensureStatistics(t, tr, reqs, !opts.DisableStatReduction)
		if err != nil {
			if stopping(err) {
				n = i
				break
			}
			return nil, nil, nil, statsCreated, err
		}
		if len(reqs) > 0 {
			batches = append(batches, StatBatch{Requests: reqs})
		}
		statsCreated += created
	}
	pools = pools[:n]
	// New statistics change optimizer estimates: skeletons fetched and costs
	// computed before the pass are not comparable with costs after it. The
	// epoch starts afresh even when the pass created nothing (the backend
	// already held every statistic), so the calls a session issues do not
	// depend on which statistics its backend held beforehand.
	ev.bumpEpoch()
	tr.startCheckpoints(opts, ev)
	if opts.Resume != nil {
		// A resumed session's one restore point: its checkpoint's facts are
		// all of the final statistics, and it re-pays its work before here.
		ev.drv.Restore(opts.Resume.Skeletons)
	}
	ev.setQueryPools(additive[:n])

	// Pass 2: every query's search, on the pool, each from the base
	// configuration interned once here. After a query fails for real,
	// queries not yet started are skipped: pass 3 returns the earliest
	// failure, which only an earlier query can precede.
	cbase := ev.config(base)
	sels := make([]querySelection, n)
	var failed atomic.Bool
	phase := tr.sctx
	tr.pool.each(n, func(i int) {
		if failed.Load() || tr.stopped() {
			return
		}
		sels[i] = selectQuery(ev, w.Events[i], i, cbase, pools[i], phase, greedyOptions{
			m: opts.GreedyM, k: perQueryK,
			scope: journal.ScopeQuery, query: i,
		})
		if err := sels[i].err; err != nil && !stopping(err) {
			failed.Store(true)
		}
	})

	// Pass 3: fold in event order.
	seen := map[string]bool{}
	var out []derive.Keyed
	var gains []QueryGain
	for i := range sels {
		sel := &sels[i]
		if !sel.ran {
			break // the session stopped before this query's search began
		}
		for _, e := range sel.journal {
			tr.record(e)
		}
		if sel.err != nil {
			if stopping(sel.err) {
				break // keep the candidates gathered so far
			}
			return nil, nil, nil, statsCreated, sel.err
		}
		if len(sel.chosen) > 0 {
			g := QueryGain{Query: i, BaseCost: sel.baseCost, BestCost: sel.bestCost}
			for _, s := range sel.chosen {
				if !seen[s.Key] {
					seen[s.Key] = true
					out = append(out, s)
				}
				g.Structures = append(g.Structures, s.Key)
			}
			gains = append(gains, g)
		}
		tr.eventDone(sel.gain)
	}
	return out, gains, batches, statsCreated, nil
}

// querySelection is one query's candidate-selection outcome, written by the
// pool worker that ran the query's search into the query's own slot and
// folded by the coordinator in event order.
type querySelection struct {
	// ran reports that the search ran (false: skipped, because the session
	// had stopped or an earlier query had failed).
	ran                bool
	chosen             []derive.Keyed
	baseCost, bestCost float64
	// gain is the query's weighted cost reduction.
	gain float64
	// journal buffers the query's decision events (its Greedy(m,k)'s seed
	// and steps, then the query summary and per-candidate verdicts).
	journal []journal.Event
	err     error
}

// selectQuery runs one query's candidate selection: its base cost, a
// Greedy(m,k) over its candidates, and the cost of the chosen subset (the
// search's own best configuration). It runs on a pool worker, so it touches
// no coordinator state: its spans nest under the given phase span and its
// journal events go to the returned buffer.
func selectQuery(ev *evaluator, e *workload.Event, i int, base *config, cands []derive.Keyed, phase context.Context, o greedyOptions) (sel querySelection) {
	sel.ran = true
	ctx, span := obs.StartSpan(phase, "query", "select-candidates")
	span.SetArg("event", i).SetArg("candidates", len(cands))
	defer func() {
		span.SetArg("gain", sel.gain).End()
	}()
	if len(cands) == 0 {
		return sel
	}
	if ev.tr.journaling() {
		o.log = &sel.journal
	}
	baseCost, err := ev.eval(i, base, ctx)
	if err != nil {
		sel.err = err
		return sel
	}
	// journalQuery records the query's selection outcome: one summary event
	// plus one accept/reject event per generated candidate.
	journalQuery := func(bestCost, gain float64, chosen []derive.Keyed) {
		if o.log == nil {
			return
		}
		qe := journal.Ev(journal.KindQuery)
		qe.Query = i
		qe.SQL = e.SQL
		qe.CostBefore, qe.CostAfter, qe.Gain = baseCost, bestCost, gain
		qe.Alternatives = len(cands)
		o.record(ev.tr, qe)
		chosenKeys := map[string]bool{}
		for _, s := range chosen {
			chosenKeys[s.Key] = true
		}
		for _, s := range cands {
			ce := journal.Ev(journal.KindCandidate)
			ce.Query = i
			ce.Structure = s.Key
			ce.Accepted = chosenKeys[s.Key]
			if ce.Accepted {
				ce.Gain = gain
			}
			o.record(ev.tr, ce)
		}
	}
	// Deliberately unbudgeted: the storage bound is a search-layer
	// constraint, and pruning candidates here would make the costed pool
	// budget-specific — the enumeration greedy enforces the bound where it
	// belongs.
	chosen, best, err := greedySearch(ev, eventScope(i, ctx), base, cands, o)
	if err != nil {
		sel.err = err
		return sel
	}
	if len(chosen) == 0 {
		journalQuery(baseCost, 0, nil)
		return sel
	}
	bestCost, err := ev.eval(i, best, ctx)
	if err != nil {
		sel.err = err
		return sel
	}
	sel.gain = (baseCost - bestCost) * e.Weight
	journalQuery(bestCost, sel.gain, chosen)
	sel.chosen, sel.baseCost, sel.bestCost = chosen, baseCost, bestCost
	return sel
}

// capCandidates keeps the limit highest-benefit candidates (merged
// structures inherit the larger parent benefit), equal benefits in input
// order. Bounding the pool keeps the enumeration step's Greedy(m,k)
// affordable on workloads with many templates. Each candidate's benefit is
// looked up once, not per comparison.
func capCandidates(cands []derive.Keyed, benefit map[string]float64, limit int) []derive.Keyed {
	if limit <= 0 || len(cands) <= limit {
		return cands
	}
	type ranked struct {
		pos     int
		benefit float64
	}
	sorted := make([]ranked, len(cands))
	for i, s := range cands {
		sorted[i] = ranked{i, benefit[s.Key]}
	}
	// Higher benefit first, equal benefits in input order: a stable sort's
	// order, from an unstable sort with the position as the tie-break.
	slices.SortFunc(sorted, func(a, b ranked) int {
		if a.benefit != b.benefit {
			if a.benefit > b.benefit {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})
	out := make([]derive.Keyed, limit)
	for i := range out {
		out[i] = cands[sorted[i].pos]
	}
	return out
}

// ensureStatistics runs the Tuner's statistics creation under the session's
// retry policy and fault injector (site "stats"). Statistics creation is
// idempotent on both backends — already-present statistics are skipped — so
// a retried call converges on the missing ones. A call that fails every
// retry outside a critical stage degrades the session (the candidates
// gathered so far still yield a best-so-far design) instead of failing it.
func ensureStatistics(t Tuner, tr *tracker, reqs []stats.Request, reduce bool) (int, error) {
	created, err := fault.Do(tr.ctx, tr.retryPolicy(), func() (int, error) {
		if err := tr.inject(fault.SiteStats); err != nil {
			return 0, err
		}
		return t.EnsureStatistics(reqs, reduce)
	}, func(_ int, err error) {
		tr.attemptDone(fault.SiteStats, err)
	})
	if err != nil {
		if tr.ctxStopped() {
			return 0, errStopped
		}
		if !tr.critical() {
			tr.degrade()
			return 0, errStopped
		}
	}
	return created, err
}

// statRequests lists the statistics needed to simulate the candidates: one
// per index key-column list, one per partitioning column.
func statRequests(cands []derive.Keyed) []stats.Request {
	var reqs []stats.Request
	for _, k := range cands {
		s := k.Structure
		switch {
		case s.Index != nil:
			reqs = append(reqs, stats.Request{Table: s.Index.Table, Columns: s.Index.KeyColumns})
		case s.Part != nil:
			reqs = append(reqs, stats.Request{Table: s.PartTable, Columns: []string{s.Part.Column}})
		}
	}
	return reqs
}

// GenerateCandidates exposes the per-query candidate generation step for
// inspection and tooling: the syntactically relevant structures for one
// analyzed statement, without the column-group restriction.
func GenerateCandidates(cat *catalog.Catalog, q *optimizer.QueryInfo, opts Options) []catalog.Structure {
	opts = opts.withDefaults()
	return structures(generateForQuery(cat, q, &columnGroups{disabled: true}, opts))
}

// generateForQuery produces the syntactically relevant structures for one
// analyzed statement, restricted to interesting column groups, each with its
// key.
func generateForQuery(cat *catalog.Catalog, q *optimizer.QueryInfo, groups *columnGroups, opts Options) []derive.Keyed {
	g := &generator{cat: cat, q: q, groups: groups, opts: opts, seen: map[string]bool{}}
	feats := opts.features()

	for si, sc := range q.Scopes {
		eqCols, rangeCols := sargableColumns(sc)
		joinCols := joinColumnsOf(q, si)
		groupCols := scopedColsOf(q.GroupBy, si)
		orderCols := scopedColsOf(q.OrderBy, si)

		if feats.Has(FeatureIndexes) {
			g.indexCandidates(sc, eqCols, rangeCols, joinCols, groupCols, orderCols)
		}
		if feats.Has(FeaturePartitioning) {
			g.partitionCandidates(sc, eqCols, rangeCols, joinCols)
		}
	}
	if feats.Has(FeatureViews) && q.Kind == optimizer.KindSelect {
		g.viewCandidates()
	}
	return g.out
}

// maxKeyColumns caps a generated index's key width: the column-group
// restriction grows groups up to it, and merging allows two columns more.
const maxKeyColumns = 3

type generator struct {
	cat    *catalog.Catalog
	q      *optimizer.QueryInfo
	groups *columnGroups
	opts   Options
	out    []derive.Keyed
	seen   map[string]bool
}

// add keeps a generated structure unless an identical one was generated
// before. Its key, rendered here, travels with it from now on.
func (g *generator) add(s catalog.Structure) {
	k := s.Key()
	if !g.seen[k] {
		g.seen[k] = true
		g.out = append(g.out, derive.Keyed{Key: k, Structure: s})
	}
}

func (g *generator) addIndex(table string, keys []string, include []string, clustered bool) {
	if len(keys) == 0 || len(keys) > maxKeyColumns {
		return
	}
	if !g.groups.interesting(table, keys...) {
		return
	}
	ix := catalog.NewIndex(table, keys...)
	ix.Clustered = clustered
	if !clustered && len(include) > 0 {
		have := map[string]bool{}
		for _, k := range ix.KeyColumns {
			have[k] = true
		}
		var inc []string
		for _, c := range include {
			if !have[c] {
				have[c] = true
				inc = append(inc, c)
			}
		}
		ix = ix.WithInclude(inc...)
	}
	g.add(catalog.Structure{Index: ix})
}

// indexCandidates proposes indexes for one scope: seek indexes on equality
// chains and ranges, covering variants, join-column indexes, and indexes /
// clusterings supporting grouping and ordering (paper §3 Example 1's
// alternatives all arise here).
func (g *generator) indexCandidates(sc *optimizer.Scope, eqCols, rangeCols, joinCols, groupCols, orderCols []string) {
	table := sc.Table.Name
	required := sc.Required

	// Equality chain (most selective first), optionally closed by a range.
	if len(eqCols) > 0 {
		key := capCols(eqCols, maxKeyColumns)
		g.addIndex(table, key, nil, false)
		g.addIndex(table, key, required, false)
		if len(rangeCols) > 0 && len(key) < maxKeyColumns {
			withRange := append(append([]string(nil), key...), rangeCols[0])
			g.addIndex(table, withRange, nil, false)
			g.addIndex(table, withRange, required, false)
		}
	}
	// Pure range indexes, plain and covering.
	for _, rc := range rangeCols {
		g.addIndex(table, []string{rc}, nil, false)
		g.addIndex(table, []string{rc}, required, false)
		g.addIndex(table, []string{rc}, nil, true) // clustered on the range column
	}
	// Join columns (enable index nested loops), covering variants.
	for _, jc := range joinCols {
		g.addIndex(table, []string{jc}, nil, false)
		g.addIndex(table, []string{jc}, required, false)
	}
	// Grouping: an index ordered on the grouping columns enables stream
	// aggregation; covering it makes it self-sufficient.
	if len(groupCols) > 0 {
		g.addIndex(table, capCols(groupCols, maxKeyColumns), nil, false)
		g.addIndex(table, capCols(groupCols, maxKeyColumns), required, false)
		g.addIndex(table, groupCols[:1], nil, true) // clustered on the leading group column
		// Range + grouping covering index (Example 1's (X, A) index).
		if len(rangeCols) > 0 {
			key := append([]string{rangeCols[0]}, capCols(groupCols, maxKeyColumns-1)...)
			g.addIndex(table, key, required, false)
		}
	}
	// Ordering.
	if len(orderCols) > 0 {
		g.addIndex(table, capCols(orderCols, maxKeyColumns), nil, false)
		g.addIndex(table, capCols(orderCols, maxKeyColumns), required, false)
		g.addIndex(table, orderCols[:1], nil, true)
	}
	// Equality clustering (cheap, non-redundant).
	if len(eqCols) > 0 {
		g.addIndex(table, eqCols[:1], nil, true)
	}
}

// partitionCandidates proposes single-column range partitioning on predicate
// and join columns (paper §2.2: SQL Server 2005 supports single-column range
// partitioning).
func (g *generator) partitionCandidates(sc *optimizer.Scope, eqCols, rangeCols, joinCols []string) {
	table := sc.Table.Name
	for _, col := range dedupStrings(append(append(append([]string(nil), rangeCols...), eqCols...), joinCols...)) {
		if !g.groups.interesting(table, col) {
			continue
		}
		c := sc.Table.Column(col)
		if c == nil || !c.Type.Numeric() || c.Max <= c.Min {
			continue
		}
		const n = 12 // equal-width ranges per candidate
		bounds := make([]float64, 0, n-1)
		span := c.Max - c.Min
		for i := 1; i < n; i++ {
			bounds = append(bounds, c.Min+span*float64(i)/float64(n))
		}
		g.add(catalog.Structure{PartTable: table, Part: catalog.NewPartitionScheme(col, bounds...)})
	}
}

// viewCandidates proposes materialized views matching the query: a grouped
// view materializing the query's joins, grouping and aggregates, and (for
// join queries) an SPJ denormalization. Every candidate is checked against
// the optimizer's own MatchView so only views that can actually answer the
// query survive.
func (g *generator) viewCandidates() {
	q := g.q
	seen := map[string]bool{}
	var tables []string
	for _, s := range q.Scopes {
		if seen[s.Table.Name] {
			return // self-join: no view candidates
		}
		seen[s.Table.Name] = true
		tables = append(tables, s.Table.Name)
	}
	var joins []catalog.JoinPred
	for _, e := range q.Joins {
		joins = append(joins, catalog.JoinPred{
			Left:  catalog.NewColRef(q.Scopes[e.L].Table.Name, e.LCol),
			Right: catalog.NewColRef(q.Scopes[e.R].Table.Name, e.RCol),
		})
	}

	// Columns the view must expose: predicate inputs, plain projections,
	// order-by columns.
	var outCols []catalog.ColRef
	for si, s := range q.Scopes {
		for _, p := range s.Preds {
			for _, c := range p.InputColumns() {
				outCols = append(outCols, catalog.NewColRef(q.Scopes[si].Table.Name, c))
			}
		}
	}
	for _, f := range q.PostFilters {
		for _, c := range f.Cols {
			outCols = append(outCols, catalog.NewColRef(q.Scopes[c.Scope].Table.Name, c.Column))
		}
	}
	for _, c := range q.PlainSelectCols {
		outCols = append(outCols, catalog.NewColRef(q.Scopes[c.Scope].Table.Name, c.Column))
	}
	for _, o := range q.OrderBy {
		if o.Scope >= 0 {
			outCols = append(outCols, catalog.NewColRef(q.Scopes[o.Scope].Table.Name, o.Column))
		}
	}

	if len(q.GroupBy) > 0 || len(q.Aggs) > 0 {
		var groupBy []catalog.ColRef
		for _, gc := range q.GroupBy {
			groupBy = append(groupBy, catalog.NewColRef(q.Scopes[gc.Scope].Table.Name, gc.Column))
		}
		aggs := append([]catalog.Agg(nil), q.Aggs...)
		// AVG re-derives from SUM and COUNT under regrouping; materialize
		// both so merged (coarser-matched) variants stay usable.
		for _, a := range q.Aggs {
			if a.Func == "AVG" {
				aggs = append(aggs, catalog.Agg{Func: "SUM", Col: a.Col}, catalog.Agg{Func: "COUNT"})
			}
		}
		if len(groupBy) == 0 {
			// Scalar aggregate: group by the predicate columns so the
			// filtered aggregate remains answerable.
			groupBy = append(groupBy, outCols...)
		}
		if len(groupBy) > 0 || len(outCols) > 0 {
			rows := estimateGroupedViewRows(g.cat, g.q, groupBy, outCols)
			v := catalog.NewMaterializedView(tables, joins, outCols, groupBy, aggs, rows)
			if _, ok := optimizer.MatchView(q, v); ok {
				g.add(catalog.Structure{View: v})
			}
		}
		return
	}

	// SPJ view for join queries: a denormalized join result.
	if len(tables) >= 2 {
		rows := estimateJoinRows(g.cat, q)
		v := catalog.NewMaterializedView(tables, joins, outCols, nil, nil, rows)
		if _, ok := optimizer.MatchView(q, v); ok {
			g.add(catalog.Structure{View: v})
		}
	}
}

// estimateJoinRows estimates the cardinality of the query's join using
// catalog distinct counts (1/max-distinct per join edge).
func estimateJoinRows(cat *catalog.Catalog, q *optimizer.QueryInfo) int64 {
	rows := 1.0
	for _, s := range q.Scopes {
		rows *= float64(s.Table.Rows)
	}
	for _, e := range q.Joins {
		dl := float64(q.Scopes[e.L].Table.DistinctOf(e.LCol))
		dr := float64(q.Scopes[e.R].Table.DistinctOf(e.RCol))
		d := dl
		if dr > d {
			d = dr
		}
		if d > 0 {
			rows /= d
		}
	}
	if rows < 1 {
		rows = 1
	}
	return int64(rows)
}

// estimateGroupedViewRows estimates group counts as the product of distinct
// counts of the grouping columns, capped by the join cardinality.
func estimateGroupedViewRows(cat *catalog.Catalog, q *optimizer.QueryInfo, groupBy, outCols []catalog.ColRef) int64 {
	distinct := 1.0
	seen := map[string]bool{}
	for _, c := range append(append([]catalog.ColRef(nil), groupBy...), outCols...) {
		if seen[c.String()] {
			continue
		}
		seen[c.String()] = true
		if t := cat.ResolveTable(c.Table); t != nil {
			distinct *= float64(t.DistinctOf(c.Column))
		}
	}
	join := float64(estimateJoinRows(cat, q))
	if distinct > join {
		distinct = join
	}
	if distinct < 1 {
		distinct = 1
	}
	return int64(distinct)
}

// sargableColumns splits a scope's sargable predicate columns into equality
// and range groups. Equality columns are ordered most-selective-first
// (highest distinct count first).
func sargableColumns(sc *optimizer.Scope) (eqCols, rangeCols []string) {
	seenEq := map[string]bool{}
	seenRange := map[string]bool{}
	for _, p := range sc.Preds {
		if !p.Sargable() {
			continue
		}
		switch p.Kind {
		case optimizer.PredEq:
			if !seenEq[p.Column] {
				seenEq[p.Column] = true
				eqCols = append(eqCols, p.Column)
			}
		default:
			if !seenRange[p.Column] {
				seenRange[p.Column] = true
				rangeCols = append(rangeCols, p.Column)
			}
		}
	}
	sort.Slice(eqCols, func(a, b int) bool {
		da, db := sc.Table.DistinctOf(eqCols[a]), sc.Table.DistinctOf(eqCols[b])
		if da != db {
			return da > db
		}
		return eqCols[a] < eqCols[b]
	})
	sort.Strings(rangeCols)
	return eqCols, rangeCols
}

func joinColumnsOf(q *optimizer.QueryInfo, si int) []string {
	var out []string
	for _, e := range q.Joins {
		if e.L == si {
			out = append(out, e.LCol)
		}
		if e.R == si {
			out = append(out, e.RCol)
		}
	}
	return dedupStrings(out)
}

func scopedColsOf(cols []optimizer.ScopedCol, si int) []string {
	var out []string
	for _, c := range cols {
		if c.Scope == si {
			out = append(out, c.Column)
		}
	}
	return dedupStrings(out)
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// keyed pairs each structure with its key: the birth of a candidate list
// that did not come from generation or merging (a sealed pool's).
func keyed(ss []catalog.Structure) []derive.Keyed {
	if len(ss) == 0 {
		return nil
	}
	out := make([]derive.Keyed, len(ss))
	for i, s := range ss {
		out[i] = derive.Keyed{Key: s.Key(), Structure: s}
	}
	return out
}

// structures drops the keys of a keyed list (nil for an empty one).
func structures(ks []derive.Keyed) []catalog.Structure {
	if len(ks) == 0 {
		return nil
	}
	out := make([]catalog.Structure, len(ks))
	for i, k := range ks {
		out[i] = k.Structure
	}
	return out
}

func capCols(cols []string, n int) []string {
	if len(cols) <= n {
		return cols
	}
	return cols[:n]
}
