package optimizer

import (
	"sort"
	"strings"

	"repro/internal/catalog"
)

// bestViewPlan returns the cheapest plan answering the query from a
// materialized view in the configuration, or nil when no view matches.
// A view matches when it joins exactly the query's tables on exactly the
// query's join predicates, exposes every plain column the query consumes,
// and (for grouped views) its grouping subsumes the query's grouping with
// derivable aggregates ([3]-style view matching).
func (c *optContext) bestViewPlan(q *QueryInfo) *joined {
	var best *joined
	for _, vp := range c.viewPlans(q) {
		if best == nil || pathLess(vp.j.plan, best.plan) {
			best = vp.j
		}
	}
	return best
}

// viewPlan is a configuration view that answers the query being optimized,
// with its plan before finishing (tryView).
type viewPlan struct {
	v *catalog.MaterializedView
	j *joined
}

// viewPlans returns the configuration's views that answer q, the query being
// optimized, in configuration order, matching and costing each on first use:
// within one optimization the matches are fixed, and the plan choice and the
// skeleton capture both read them.
func (c *optContext) viewPlans(q *QueryInfo) []viewPlan {
	if c.viewsDone || len(c.cfg.Views) == 0 {
		return c.views
	}
	c.viewsDone = true
	tables, joinSet, ok := viewInputs(q)
	if !ok {
		return nil
	}
	for _, v := range c.cfg.Views {
		if j := c.tryView(q, v, tables, joinSet); j != nil {
			c.views = append(c.views, viewPlan{v: v, j: j})
		}
	}
	return c.views
}

// viewComponents returns the skeleton components of the views that answer
// q, each finished end-to-end as optimizeSelect would finish it if the view
// were chosen.
func (c *optContext) viewComponents(q *QueryInfo) []AltComponent {
	var out []AltComponent
	for _, vp := range c.viewPlans(q) {
		fin := c.finishSelect(q, *vp.j)
		out = append(out, AltComponent{
			Structure: vp.v.Key(),
			Op:        vp.j.plan.Op,
			View:      true,
			Pre:       vp.j.plan.Cost,
			Final:     fin.Cost,
			Used:      fin.structureKeys(),
		})
	}
	return out
}

// viewInputs returns what view matching compares a query against: its table
// set, lower-cased and sorted, and its join predicates keyed by
// JoinPred.String. ok is false for a self-join, which references a table
// twice and matches no view.
func viewInputs(q *QueryInfo) (tables []string, joinSet map[string]bool, ok bool) {
	seen := map[string]bool{}
	for _, s := range q.Scopes {
		if seen[s.Table.Name] {
			return nil, nil, false
		}
		seen[s.Table.Name] = true
		tables = append(tables, strings.ToLower(s.Table.Name))
	}
	sort.Strings(tables)
	joinSet = map[string]bool{}
	for _, e := range q.Joins {
		jp := catalog.JoinPred{
			Left:  catalog.NewColRef(q.Scopes[e.L].Table.Name, e.LCol),
			Right: catalog.NewColRef(q.Scopes[e.R].Table.Name, e.RCol),
		}
		joinSet[jp.String()] = true
	}
	return tables, joinSet, true
}

// ViewMatch describes how a view answers a query.
type ViewMatch struct {
	// Regroup is true when the query's grouping is strictly coarser than the
	// view's, so a re-aggregation over the view rows is needed.
	Regroup bool
}

// MatchView reports whether the materialized view can answer the query:
// exact table and join-predicate sets, every plain column the query consumes
// exposed by the view, and (for grouped views) derivable aggregates with the
// query grouping a subset of the view grouping. The engine uses the same
// predicate so estimated and actual plans agree on view usage.
func MatchView(q *QueryInfo, v *catalog.MaterializedView) (ViewMatch, bool) {
	tables, joinSet, ok := viewInputs(q)
	if !ok {
		return ViewMatch{}, false
	}
	return matchView(q, v, tables, joinSet)
}

func matchView(q *QueryInfo, v *catalog.MaterializedView, tables []string, joinSet map[string]bool) (ViewMatch, bool) {
	// Table sets must match exactly.
	if len(v.Tables) != len(tables) {
		return ViewMatch{}, false
	}
	for i := range tables {
		if v.Tables[i] != tables[i] {
			return ViewMatch{}, false
		}
	}
	// Join predicate sets must match exactly.
	if len(v.JoinPreds) != len(joinSet) {
		return ViewMatch{}, false
	}
	for _, jp := range v.JoinPreds {
		if !joinSet[jp.String()] {
			return ViewMatch{}, false
		}
	}

	outSet := map[string]bool{}
	for _, o := range v.OutputColumns {
		outSet[o.String()] = true
	}
	groupSet := map[string]bool{}
	for _, g := range v.GroupBy {
		groupSet[g.String()] = true
	}
	aggSet := map[string]bool{}
	for _, a := range v.Aggs {
		aggSet[a.String()] = true
	}
	colOf := func(sc ScopedCol) string {
		return catalog.NewColRef(q.Scopes[sc.Scope].Table.Name, sc.Column).String()
	}

	grouped := len(v.GroupBy) > 0

	// Every plain column the query consumes must be exposed by the view.
	var needPlain []ScopedCol
	needPlain = append(needPlain, q.PlainSelectCols...)
	needPlain = append(needPlain, q.GroupBy...)
	for _, o := range q.OrderBy {
		if o.Scope >= 0 {
			needPlain = append(needPlain, o)
		}
	}
	for si, s := range q.Scopes {
		for _, p := range s.Preds {
			for _, col := range p.InputColumns() {
				needPlain = append(needPlain, ScopedCol{Scope: si, Column: col})
			}
			if p.Column == "" && len(p.Cols) == 0 {
				return ViewMatch{}, false // opaque residual cannot be applied on the view
			}
		}
	}
	for _, f := range q.PostFilters {
		if len(f.Cols) == 0 {
			return ViewMatch{}, false
		}
		needPlain = append(needPlain, f.Cols...)
	}
	for _, sc := range needPlain {
		if sc.Column == "" {
			return ViewMatch{}, false
		}
		if !outSet[colOf(sc)] {
			return ViewMatch{}, false
		}
	}

	// Aggregates must be derivable from the view.
	regroup := false
	if grouped {
		if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
			return ViewMatch{}, false // plain row query cannot read grouped view
		}
		// Query grouping must be a subset of the view grouping.
		for _, g := range q.GroupBy {
			if !groupSet[colOf(g)] {
				return ViewMatch{}, false
			}
		}
		regroup = len(q.GroupBy) < len(v.GroupBy)
		for _, a := range q.Aggs {
			if !aggSet[a.String()] {
				return ViewMatch{}, false
			}
			if regroup {
				switch strings.ToUpper(a.Func) {
				case "SUM", "COUNT", "MIN", "MAX":
					// re-aggregable
				case "AVG":
					// AVG re-derives from SUM and COUNT of the same argument.
					if !aggSet[catalog.Agg{Func: "SUM", Col: a.Col}.String()] || !(aggSet[catalog.Agg{Func: "COUNT"}.String()] || aggSet[catalog.Agg{Func: "COUNT", Col: a.Col}.String()]) {
						return ViewMatch{}, false
					}
				default:
					return ViewMatch{}, false
				}
			}
		}
	} else if len(q.Aggs) > 0 {
		// SPJ view under an aggregating query: the aggregate arguments must
		// be exposed as plain columns.
		for _, a := range q.Aggs {
			if a.Col.Column != "" && !strings.HasPrefix(a.Col.Column, "expr:") && !outSet[a.Col.String()] {
				return ViewMatch{}, false
			}
			if strings.HasPrefix(a.Col.Column, "expr:") {
				return ViewMatch{}, false // expression args cannot be matched conservatively
			}
		}
	}
	return ViewMatch{Regroup: regroup}, true
}

func (c *optContext) tryView(q *QueryInfo, v *catalog.MaterializedView, tables []string, joinSet map[string]bool) *joined {
	m, ok := matchView(q, v, tables, joinSet)
	if !ok {
		return nil
	}
	regroup := m.Regroup

	// Cost: scan the view (with partition elimination), filter with the
	// query's local predicates, regroup if needed.
	rows := float64(v.Rows)
	if rows < 1 {
		rows = 1
	}
	pages := float64(v.Pages(c.opt.Cat))

	fr := 1.0
	if v.Partitioning != nil {
		// Elimination applies when some scope has a sargable predicate on
		// the partitioning column of its table.
		for _, s := range q.Scopes {
			if s.Table.HasColumn(v.Partitioning.Column) {
				if f := c.partitionFraction(s.Table, v.Partitioning, s.Preds); f < fr {
					fr = f
				}
			}
		}
	}

	// Local predicates filter the view scan; post-join residuals are applied
	// uniformly by finishSelect.
	sel := 1.0
	for _, s := range q.Scopes {
		sel *= c.scopeSelectivity(s)
	}
	outRows := rows * sel
	if outRows < 1 {
		outRows = 1
	}

	scanPages := pages * fr
	cost := startupCost + scanPages + rows*fr*cpuPerRow
	cost /= c.parallelism(scanPages)
	plan := &Plan{Op: "ViewScan", Detail: v.Name, Cost: cost, Rows: outRows,
		Pages: pagesF(outRows, v.RowWidth(c.opt.Cat)), Structure: v.Key()}
	if regroup {
		groups := c.groupCardinality(q, outRows)
		plan = &Plan{Op: "HashAggregate", Detail: "regroup view", Cost: cost + c.hashCost(groups, pagesF(groups, v.RowWidth(c.opt.Cat)), outRows),
			Rows: groups, Pages: pagesF(groups, v.RowWidth(c.opt.Cat)), Children: []*Plan{plan}, Structure: v.Key()}
		outRows = groups
	}
	return &joined{plan: plan, rows: outRows, width: v.RowWidth(c.opt.Cat)}
}
