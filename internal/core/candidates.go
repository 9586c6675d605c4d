package core

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/stats"
	"repro/internal/workload"
)

// selectCandidates runs the Candidate Selection step (paper §2.2): for each
// query of the workload — one query at a time — it generates syntactically
// relevant structures, creates the statistics needed to simulate them
// (reduced per §5.2), and keeps the structures chosen by a per-query
// Greedy(m,k) search as candidates for the whole workload. Alongside the
// candidates it returns each query's unweighted selection outcome (the
// QueryGains the search layer turns into per-structure benefits under its
// effective weights) and the statistics-creation log (the StatBatches a
// revision replays on a fresh backend).
//
// This is the heart of the costing layer, and it is deliberately
// independent of every search-layer constraint: the per-query search runs
// against the base configuration only (no pinned structures), with no
// storage budget and the workload's own weights, so its output — and every
// cost it caches — is reusable under any Constraints value a revision
// chooses.
//
// Parallelism note: the per-query work is parallelized inside each query's
// Greedy(m,k) — its frontiers fan out over the session's worker pool — but
// the cross-query loop itself stays sequential, deliberately. Optimizer
// cost estimates depend on which statistics exist at call time (without a
// histogram the selectivity model falls back to uniform/density guesses),
// and this loop creates statistics query by query; running queries
// concurrently would make each cost depend on how far other queries had
// advanced statistics creation — scheduling-dependent results, which the
// determinism guarantee (identical recommendations at every Parallelism
// level) forbids. Within one query the statistics state is fixed, so its
// frontier evaluations are safely concurrent.
func selectCandidates(t Tuner, ev *evaluator, tr *tracker, w *workload.Workload, base *catalog.Configuration, groups *columnGroups, opts Options) ([]catalog.Structure, []QueryGain, []StatBatch, int, error) {
	pool := map[string]catalog.Structure{}
	var gains []QueryGain
	var batches []StatBatch
	var order []string
	statsCreated := 0
	perQueryK := opts.PerQueryK
	if perQueryK <= 0 {
		perQueryK = 6
	}

	for i := range w.Events {
		if tr.stopped() {
			break
		}
		qspan, endQuery := tr.span("query", "select-candidates")
		qspan.SetArg("event", i)
		gain, err := func() (float64, error) {
			q := ev.analyzed(i)
			if q == nil {
				return 0, nil
			}
			cands := generateForQuery(t.Catalog(), q, groups, opts)
			qspan.SetArg("candidates", len(cands))
			if opts.Metrics != nil {
				opts.Metrics.Histogram("dta_candidates_per_query",
					"Syntactically relevant structures generated per workload event (§2.2).",
					obs.CountBuckets).Observe(float64(len(cands)))
			}
			if len(cands) == 0 {
				return 0, nil
			}
			// Statistics for what-if structures (§5.2). The request batch is
			// logged in issue order so a revision can replay the exact
			// statistics state on a fresh backend.
			reqs := statRequests(cands)
			created, err := ensureStatistics(t, tr, reqs, !opts.DisableStatReduction)
			if err != nil {
				return 0, err
			}
			if len(reqs) > 0 {
				batches = append(batches, StatBatch{Requests: reqs})
			}
			statsCreated += created
			if created > 0 {
				// New statistics change optimizer estimates; skeletons
				// fetched before them no longer predict fresh calls.
				ev.bumpDeriveEpoch()
			}
			// This query's candidates are the structure pool its greedy
			// search draws from — what the derivation engine's tops for the
			// evaluations about to run are built from. Set sequentially here (like the
			// statistics), so tops never depend on scheduling.
			ev.setDerivePool(cands)

			baseCost, _, err := ev.cost(i, ev.config(base))
			if err != nil {
				return 0, err
			}
			// journalQuery records the query's selection outcome: one summary
			// event plus one accept/reject event per generated candidate.
			journalQuery := func(bestCost, gain float64, chosen []catalog.Structure) {
				if !tr.journaling() {
					return
				}
				qe := journal.Ev(journal.KindQuery)
				qe.Query = i
				qe.SQL = w.Events[i].SQL
				qe.CostBefore, qe.CostAfter, qe.Gain = baseCost, bestCost, gain
				qe.Alternatives = len(cands)
				tr.record(qe)
				chosenKeys := map[string]bool{}
				for _, s := range chosen {
					chosenKeys[s.Key()] = true
				}
				for _, s := range cands {
					ce := journal.Ev(journal.KindCandidate)
					ce.Query = i
					ce.Structure = s.Key()
					ce.Accepted = chosenKeys[s.Key()]
					if ce.Accepted {
						ce.Gain = gain
					}
					tr.record(ce)
				}
			}
			// Deliberately unbudgeted: the storage bound is a search-layer
			// constraint, and pruning candidates here would make the costed
			// pool budget-specific — the enumeration greedy enforces the
			// bound where it belongs.
			chosen, err := greedySearch(ev, eventScope(i), base, cands, greedyOptions{
				m: opts.GreedyM, k: perQueryK, tr: tr,
				scope: journal.ScopeQuery, query: i,
			})
			if err != nil {
				return 0, err
			}
			if len(chosen) == 0 {
				journalQuery(baseCost, 0, nil)
				return 0, nil
			}
			bestCfg := base.Clone()
			for _, s := range chosen {
				s.ApplyTo(bestCfg)
			}
			bestCost, _, err := ev.cost(i, ev.config(bestCfg))
			if err != nil {
				return 0, err
			}
			gain := (baseCost - bestCost) * w.Events[i].Weight
			journalQuery(bestCost, gain, chosen)
			g := QueryGain{Query: i, BaseCost: baseCost, BestCost: bestCost}
			for _, s := range chosen {
				key := s.Key()
				if _, dup := pool[key]; !dup {
					pool[key] = s
					order = append(order, key)
				}
				g.Structures = append(g.Structures, key)
			}
			gains = append(gains, g)
			return gain, nil
		}()
		qspan.SetArg("gain", gain)
		endQuery()
		if err != nil {
			if stopping(err) {
				break // keep the candidates gathered so far
			}
			return nil, nil, nil, statsCreated, err
		}
		tr.eventDone(gain)
	}
	out := make([]catalog.Structure, 0, len(order))
	for _, k := range order {
		out = append(out, pool[k])
	}
	return out, gains, batches, statsCreated, nil
}

// capCandidates keeps the limit highest-benefit candidates (merged
// structures inherit the larger parent benefit plus a small bonus so they
// stay competitive), equal benefits in input order. Bounding the pool keeps
// the enumeration step's Greedy(m,k) affordable on workloads with many
// templates. Each candidate's benefit is looked up once, not per comparison.
func capCandidates(cands []catalog.Structure, benefit map[string]float64, limit int) []catalog.Structure {
	if limit <= 0 || len(cands) <= limit {
		return cands
	}
	type ranked struct {
		s       catalog.Structure
		benefit float64
	}
	sorted := make([]ranked, len(cands))
	for i, s := range cands {
		sorted[i] = ranked{s, benefit[s.Key()]}
	}
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].benefit > sorted[b].benefit })
	out := make([]catalog.Structure, limit)
	for i := range out {
		out[i] = sorted[i].s
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
	created, err := fault.Do(tr.doCtx(), tr.retryPolicy(), func() (int, error) {
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
func statRequests(cands []catalog.Structure) []stats.Request {
	var reqs []stats.Request
	for _, s := range cands {
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
	return generateForQuery(cat, q, &columnGroups{disabled: true}, opts)
}

// generateForQuery produces the syntactically relevant structures for one
// analyzed statement, restricted to interesting column groups.
func generateForQuery(cat *catalog.Catalog, q *optimizer.QueryInfo, groups *columnGroups, opts Options) []catalog.Structure {
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

type generator struct {
	cat    *catalog.Catalog
	q      *optimizer.QueryInfo
	groups *columnGroups
	opts   Options
	out    []catalog.Structure
	seen   map[string]bool
}

func (g *generator) add(s catalog.Structure) {
	k := s.Key()
	if !g.seen[k] {
		g.seen[k] = true
		g.out = append(g.out, s)
	}
}

func (g *generator) addIndex(table string, keys []string, include []string, clustered bool) {
	if len(keys) == 0 || len(keys) > g.opts.MaxKeyColumns {
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
		key := capCols(eqCols, g.opts.MaxKeyColumns)
		g.addIndex(table, key, nil, false)
		g.addIndex(table, key, required, false)
		if len(rangeCols) > 0 && len(key) < g.opts.MaxKeyColumns {
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
		g.addIndex(table, capCols(groupCols, g.opts.MaxKeyColumns), nil, false)
		g.addIndex(table, capCols(groupCols, g.opts.MaxKeyColumns), required, false)
		g.addIndex(table, groupCols[:1], nil, true) // clustered on the leading group column
		// Range + grouping covering index (Example 1's (X, A) index).
		if len(rangeCols) > 0 {
			key := append([]string{rangeCols[0]}, capCols(groupCols, g.opts.MaxKeyColumns-1)...)
			g.addIndex(table, key, required, false)
		}
	}
	// Ordering.
	if len(orderCols) > 0 {
		g.addIndex(table, capCols(orderCols, g.opts.MaxKeyColumns), nil, false)
		g.addIndex(table, capCols(orderCols, g.opts.MaxKeyColumns), required, false)
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
		n := g.opts.PartitionCount
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

func capCols(cols []string, n int) []string {
	if len(cols) <= n {
		return cols
	}
	return cols[:n]
}
