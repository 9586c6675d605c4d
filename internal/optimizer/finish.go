package optimizer

import "math"

// FinishSpec captures everything the post-join finish chain (residual
// filters, aggregation, HAVING, DISTINCT, ORDER BY, TOP) needs about a query,
// with no reference back to the catalog or configuration. All fields are
// configuration-independent, so a plan skeleton can serialize the spec once
// and re-run the finish arithmetic — through the same code path the live
// optimizer uses — for any structure subset, reproducing costs bit-for-bit.
type FinishSpec struct {
	// PostSels holds the clamped selectivity of each post-join residual
	// filter, in query order.
	PostSels []float64
	// HasGroup/HasAggs mirror len(GroupBy) > 0 and len(Aggs) > 0.
	HasGroup bool
	HasAggs  bool
	// GroupDistinct is the raw (uncapped) distinct-group estimate; the finish
	// caps it by the input cardinality.
	GroupDistinct float64
	// Want is the interesting order the aggregate checks the input against.
	Want []string
	// HasHaving applies the 0.3-selectivity HAVING filter.
	HasHaving bool
	// Distinct applies the hash-distinct step.
	Distinct bool
	// HasOrderBy applies the ordering step, with OrderWant the wanted column
	// order; OrderOK is false when some ORDER BY column could not be resolved
	// to a scope (the sort is then unconditional and OrderWant is partial).
	HasOrderBy bool
	OrderWant  []string
	OrderOK    bool
	// Top is the TOP row limit (0 = none).
	Top int
	// HW is the hardware model the hash/sort operators price against.
	HW Hardware
}

// finishSpec captures the finish chain of the query.
func (c *optContext) finishSpec(q *QueryInfo) FinishSpec {
	s := FinishSpec{
		HasGroup:      len(q.GroupBy) > 0,
		HasAggs:       len(q.Aggs) > 0,
		GroupDistinct: 1,
		HasHaving:     q.HasHaving,
		Distinct:      q.Distinct,
		HasOrderBy:    len(q.OrderBy) > 0,
		OrderOK:       true,
		Top:           q.Top,
		HW:            c.hw(),
	}
	for _, f := range q.PostFilters {
		s.PostSels = append(s.PostSels, clampSel(f.Sel))
	}
	if s.HasGroup || s.HasAggs {
		if s.HasGroup {
			s.GroupDistinct = c.groupDistinct(q)
		}
		s.Want = c.interestingOrder(q)
	}
	if s.HasOrderBy {
		for _, o := range q.OrderBy {
			if o.Scope < 0 {
				s.OrderOK = false
				break
			}
			s.OrderWant = append(s.OrderWant, q.Scopes[o.Scope].Table.Name+"."+o.Column)
		}
	}
	return s
}

// finish runs the captured chain over an input of the given cost, output
// order, rows and width and returns the finished cost. When plan is the
// input's plan tree it also returns the finished tree, one node per step;
// when plan is nil it builds nothing and returns a nil plan. This is THE
// finish implementation: the live optimizer's finishSelect builds plans
// with it and the skeleton replay costs with it, both running the same float
// operations in the same order, so a replayed cost is the float sequence the
// optimizer would compute.
func (s *FinishSpec) finish(plan *Plan, cost float64, ordered []string, rows float64, width int) (float64, *Plan) {
	// Post-join residual filters.
	for _, sel := range s.PostSels {
		rows *= sel
	}
	if rows < 1 {
		rows = 1
	}

	// Grouping / aggregation.
	if s.HasGroup || s.HasAggs {
		groups := 1.0
		if s.HasGroup {
			groups = capGroups(s.GroupDistinct, rows)
		}
		if s.HasGroup && orderedPrefix(ordered, s.Want) {
			cost += rows * cpuPerRow
			plan = grow(plan, "StreamAggregate", "", cost, groups, pagesF(groups, width), ordered)
		} else {
			cost += hashCostHW(s.HW, groups, pagesF(groups, width), rows)
			ordered = nil
			plan = grow(plan, "HashAggregate", "", cost, groups, pagesF(groups, width), nil)
		}
		rows = groups
	}

	if s.HasHaving {
		rows = math.Max(1, rows*0.3)
		cost += rows * cpuPerRow
		plan = grow(plan, "Filter", "HAVING", cost, rows, pagesF(rows, width), ordered)
	}

	if s.Distinct {
		d := math.Max(1, rows/2)
		cost += hashCostHW(s.HW, d, pagesF(d, width), rows)
		ordered = nil
		plan = grow(plan, "HashDistinct", "", cost, d, pagesF(d, width), nil)
		rows = d
	}

	// Ordering.
	if s.HasOrderBy {
		if !s.OrderOK || !orderedPrefix(ordered, s.OrderWant) {
			cost += sortCostHW(s.HW, rows, pagesF(rows, width))
			ordered = s.OrderWant
			plan = grow(plan, "Sort", "", cost, rows, pagesF(rows, width), ordered)
		}
	}

	if s.Top > 0 && float64(s.Top) < rows {
		rows = float64(s.Top)
		cost += startupCost
		plan = grow(plan, "Top", "", cost, rows, pagesF(rows, width), ordered)
	}
	return cost, plan
}

// grow puts one finish step's node on top of the plan built so far, or
// builds nothing when the chain runs cost-only (plan is nil).
func grow(plan *Plan, op, detail string, cost, rows, pages float64, ordered []string) *Plan {
	if plan == nil {
		return nil
	}
	return &Plan{Op: op, Detail: detail, Cost: cost, Rows: rows, Pages: pages, Children: []*Plan{plan}, Ordered: ordered}
}
