package optimizer

// optimizeSelect plans an analyzed SELECT: the best of (a) the join plan
// over base tables and (b) any matching materialized view, followed by
// grouping, having, ordering and TOP.
func (c *optContext) optimizeSelect(q *QueryInfo) *Plan {
	base := c.basePlan(q)
	if mv := c.bestViewPlan(q); mv != nil && mv.plan.Cost < base.plan.Cost {
		base = *mv
	}
	return c.finishSelect(q, base)
}

// basePlan computes the join-over-base-tables plan, using an
// order-preserving single-table access when it lets the query skip a sort
// for GROUP BY / ORDER BY.
func (c *optContext) basePlan(q *QueryInfo) joined {
	j := c.joinScopes(q)

	// Single-table queries can exploit an access path whose order matches
	// the grouping or ordering columns (Example 1 of the paper: a clustered
	// index on the GROUP BY column).
	if len(q.Scopes) == 1 {
		want := c.interestingOrder(q)
		if len(want) > 0 {
			if op := orderedPath(c.scopePaths(q, 0), want); op != nil {
				alt := joined{plan: op.plan, rows: op.rows, width: q.Scopes[0].Table.ColumnWidth(q.Scopes[0].Required)}
				// Compare end-to-end: the ordered path may lose on access
				// cost but win by skipping the sort/hash.
				if c.finishSelect(q, alt).Cost < c.finishSelect(q, j).Cost {
					return alt
				}
			}
		}
	}
	return j
}

// interestingOrder returns the qualified column order that would let the
// query avoid a sort or use stream aggregation: GROUP BY columns first,
// else ORDER BY columns.
func (c *optContext) interestingOrder(q *QueryInfo) []string {
	if len(q.GroupBy) > 0 {
		var want []string
		for _, g := range q.GroupBy {
			if g.Scope < 0 {
				return nil
			}
			want = append(want, q.Scopes[g.Scope].Table.Name+"."+g.Column)
		}
		return want
	}
	var want []string
	for _, o := range q.OrderBy {
		if o.Scope < 0 {
			return nil
		}
		want = append(want, q.Scopes[o.Scope].Table.Name+"."+o.Column)
	}
	return want
}

// finishSelect appends residual filters, aggregation, having, distinct,
// ordering and TOP on top of the input, by capturing the query's FinishSpec
// and running the shared finish chain over it.
func (c *optContext) finishSelect(q *QueryInfo, in joined) *Plan {
	spec := c.finishSpec(q)
	return spec.finish(in.plan, in.rows, in.width)
}
