package core

import (
	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// columnGroups is the output of the column-group restriction step: the set
// of "interesting" column groups for the workload. Indexes and partitioning
// considered by the advisor are limited to these groups (paper §2.2), which
// shrinks the structure space dramatically with little quality impact.
type columnGroups struct {
	frequent map[string]bool
	disabled bool
}

// interesting reports whether the column set may seed a physical design
// structure.
func (g *columnGroups) interesting(table string, cols ...string) bool {
	if g.disabled {
		return true
	}
	return g.frequent[catalog.NewColumnGroup(table, cols...).Key()]
}

// interestingColumnGroups mines the frequent column groups of the workload
// bottom-up in the style of frequent-itemset mining [5]: a column group is
// interesting when the events referencing all of its columns together
// account for at least ColGroupFrac of the total workload cost. Costs are
// the optimizer-estimated costs under the base configuration, so expensive
// queries weigh more than cheap ones.
func interestingColumnGroups(t Tuner, ev *evaluator, w *workload.Workload, opts Options) (*columnGroups, error) {
	if opts.NoColGroupRestriction {
		return &columnGroups{disabled: true}, nil
	}
	base := opts.BaseConfig
	if base == nil {
		base = catalog.NewConfiguration()
	}

	// Per event: cost weight and the referenced columns per table.
	type occurrence struct {
		table string
		cols  []string
		cost  float64
	}
	var occs []occurrence
	var totalCost float64
	cbase := ev.config(base)
	for i, e := range w.Events {
		q := ev.analyzed(i)
		if q == nil {
			continue
		}
		c, _, err := ev.cost(i, cbase)
		if err != nil {
			return nil, err
		}
		cost := c * e.Weight
		totalCost += cost
		for _, cols := range referencedColumns(q) {
			occs = append(occs, occurrence{table: cols.table, cols: cols.cols, cost: cost})
		}
	}
	threshold := totalCost * opts.ColGroupFrac

	// Level 1: frequent single columns.
	costOf := map[string]float64{}
	for _, o := range occs {
		seen := map[string]bool{}
		for _, c := range o.cols {
			k := catalog.NewColumnGroup(o.table, c).Key()
			if !seen[k] {
				seen[k] = true
				costOf[k] += o.cost
			}
		}
	}
	frequent := map[string]bool{}
	for k, c := range costOf {
		if c >= threshold {
			frequent[k] = true
		}
	}

	// Levels 2..MaxKeyColumns, bottom-up: extend only groups whose members
	// are all individually frequent (the apriori property), counting the
	// co-occurrence cost.
	for size := 2; size <= opts.MaxKeyColumns; size++ {
		costOf = map[string]float64{}
		for _, o := range occs {
			// Columns of this occurrence that are frequent singletons.
			var freq []string
			for _, c := range o.cols {
				if frequent[catalog.NewColumnGroup(o.table, c).Key()] {
					freq = append(freq, c)
				}
			}
			if len(freq) < size {
				continue
			}
			forEachSubset(freq, size, func(sub []string) {
				// Apriori: all (size−1)-subsets must be frequent.
				if size > 2 {
					ok := true
					forEachSubset(sub, size-1, func(s2 []string) {
						if !frequent[catalog.NewColumnGroup(o.table, s2...).Key()] {
							ok = false
						}
					})
					if !ok {
						return
					}
				}
				costOf[catalog.NewColumnGroup(o.table, sub...).Key()] += o.cost
			})
		}
		added := false
		for k, c := range costOf {
			if c >= threshold {
				frequent[k] = true
				added = true
			}
		}
		if !added {
			break
		}
	}
	return &columnGroups{frequent: frequent}, nil
}

type tableCols struct {
	table string
	cols  []string
}

// referencedColumns lists, per table of the query, the columns relevant to
// physical design: sargable/residual predicate columns, join columns,
// grouping and ordering columns.
func referencedColumns(q *optimizer.QueryInfo) []tableCols {
	perScope := make([]map[string]bool, len(q.Scopes))
	add := func(si int, col string) {
		if si < 0 || si >= len(q.Scopes) || col == "" {
			return
		}
		if perScope[si] == nil {
			perScope[si] = map[string]bool{}
		}
		perScope[si][col] = true
	}
	for si, s := range q.Scopes {
		for _, p := range s.Preds {
			for _, c := range p.InputColumns() {
				add(si, c)
			}
		}
	}
	for _, j := range q.Joins {
		add(j.L, j.LCol)
		add(j.R, j.RCol)
	}
	for _, g := range q.GroupBy {
		add(g.Scope, g.Column)
	}
	for _, o := range q.OrderBy {
		add(o.Scope, o.Column)
	}
	var out []tableCols
	for si, set := range perScope {
		if len(set) == 0 {
			continue
		}
		tc := tableCols{table: q.Scopes[si].Table.Name}
		for c := range set {
			tc.cols = append(tc.cols, c)
		}
		out = append(out, tc)
	}
	return out
}

// forEachSubset calls fn for every size-k subset of items (items assumed
// small; k ≤ 3 in practice).
func forEachSubset(items []string, k int, fn func([]string)) {
	n := len(items)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		sub := make([]string, k)
		for i, x := range idx {
			sub[i] = items[x]
		}
		fn(sub)
		// Advance combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
