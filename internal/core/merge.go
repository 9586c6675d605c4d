package core

import (
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/journal"
)

// mergeCandidates implements the Merging step (paper §2.2): candidate
// selection works one query at a time, so its output can be over-specialized
// — excellent for single queries, wasteful for the workload under storage
// pressure or updates. Merging augments the candidate set with structures
// derived from pairs of candidates that can each serve several queries:
//
//   - index merging [8]: two indexes on a table merge into one whose key is
//     the first index's key followed by the second's unmatched key columns,
//     with included columns unioned;
//   - view merging [3]: two views over the same join merge by unioning
//     grouping columns, outputs and aggregates;
//   - partitioned-structure merging [4]: two range partitionings of a table
//     on the same column merge by unioning their boundary sets.
//
// Each candidate is paired with every later one, in pool order; a pair
// yields up to two merged structures (both index orders), each keyed at
// birth. The pairs are never materialized: each candidate's merges with the
// candidates after it are computed on the worker pool into the candidate's
// own row, then folded row by row — the pair order.
func mergeCandidates(cat *catalog.Catalog, cands []derive.Keyed, benefit map[string]float64, tr *tracker) []derive.Keyed {
	cols := indexColumns(cands)
	// mergeRow computes the merged structures candidate i yields with every
	// later candidate — pure CPU over the catalog, no shared state.
	mergeRow := func(i int) []merged {
		var out []merged
		a := cands[i].Structure
		for j := i + 1; j < len(cands); j++ {
			b := cands[j].Structure
			switch {
			case a.Index != nil && b.Index != nil && a.Index.Table == b.Index.Table &&
				a.Index.Clustered == b.Index.Clustered:
				if m := cols.merge(i, j, a.Index.Clustered, maxKeyColumns+2); m != nil {
					out = append(out, newMerged(j, catalog.Structure{Index: m}))
				}
				if m := cols.merge(j, i, a.Index.Clustered, maxKeyColumns+2); m != nil {
					out = append(out, newMerged(j, catalog.Structure{Index: m}))
				}
			case a.View != nil && b.View != nil:
				if m := mergeViews(cat, a.View, b.View); m != nil {
					out = append(out, newMerged(j, catalog.Structure{View: m}))
				}
			case a.Part != nil && b.Part != nil && a.PartTable == b.PartTable &&
				a.Part.Column == b.Part.Column:
				m := catalog.NewPartitionScheme(a.Part.Column,
					append(append([]float64(nil), a.Part.Boundaries...), b.Part.Boundaries...)...)
				out = append(out, newMerged(j, catalog.Structure{PartTable: a.PartTable, Part: m}))
			}
		}
		return out
	}
	rows := make([][]merged, len(cands))
	tr.pool.each(len(cands), func(i int) { rows[i] = mergeRow(i) })

	// Fold sequentially in pair order: dedup against the pool and inherit
	// parent benefits exactly as the sequential pairwise loop did, so the
	// output order (and therefore everything downstream) is independent of
	// parallelism.
	total := len(cands)
	for _, row := range rows {
		total += len(row)
	}
	out := append(make([]derive.Keyed, 0, total), cands...)
	seen := make(map[string]bool, total)
	for _, s := range cands {
		seen[s.Key] = true
	}
	tr.jnl.Reserve(journal.KindMerge, total-len(cands))
	for i, row := range rows {
		a := cands[i].Key
		for _, m := range row {
			b, k := cands[m.with].Key, m.Key
			if tr.journaling() {
				// Journal every merge attempt at the sequential fold — kept
				// merges and duplicates alike — so explain can walk a
				// recommended structure back to its pre-merging leaves.
				ev := journal.Ev(journal.KindMerge)
				ev.Structure = k
				ev.Parents = []string{a, b}
				ev.Accepted = !seen[k]
				tr.record(ev)
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, m.Keyed)
			// A merged structure inherits the larger parent benefit so pool
			// capping does not starve it.
			benefit[k] = max(benefit[a], benefit[b])
		}
	}
	return out
}

// merged is one merged structure of a candidate's row: with is the index of
// the later candidate it was merged with.
type merged struct {
	with int
	derive.Keyed
}

func newMerged(with int, s catalog.Structure) merged {
	return merged{with: with, Keyed: derive.Keyed{Key: s.Key(), Structure: s}}
}

// mergeColumns is the merging step's view of the pool's indexes: every
// column name interned to an ID — two columns share one iff their names are
// equal, so unions over IDs are unions over names — and each index
// candidate's table and columns in that form.
type mergeColumns struct {
	// lower holds each ID's name lower-cased, as catalog.NewIndex stores it.
	lower []string
	// ix holds each candidate's columns (zero for other structures).
	ix []indexCols
}

// indexCols is an index's lower-cased table and its key and included
// columns as IDs.
type indexCols struct {
	table        string
	key, include []int32
}

// indexColumns interns the columns of the pool's indexes.
func indexColumns(cands []derive.Keyed) *mergeColumns {
	mc := &mergeColumns{ix: make([]indexCols, len(cands))}
	ids := map[string]int32{}
	id := func(name string) int32 {
		v, ok := ids[name]
		if !ok {
			v = int32(len(mc.lower))
			ids[name] = v
			mc.lower = append(mc.lower, strings.ToLower(name))
		}
		return v
	}
	n := 0
	for _, c := range cands {
		if ix := c.Structure.Index; ix != nil {
			n += len(ix.KeyColumns) + len(ix.IncludeCols)
		}
	}
	arena := make([]int32, 0, n)
	for i, c := range cands {
		ix := c.Structure.Index
		if ix == nil {
			continue
		}
		start := len(arena)
		for _, name := range ix.KeyColumns {
			arena = append(arena, id(name))
		}
		mid := len(arena)
		for _, name := range ix.IncludeCols {
			arena = append(arena, id(name))
		}
		mc.ix[i] = indexCols{table: strings.ToLower(ix.Table), key: arena[start:mid:mid], include: arena[mid:len(arena):len(arena)]}
	}
	return mc
}

// merge builds index candidate f ⊕ index candidate s: f's key, then s's key
// columns not already present, with included columns unioned (minus key
// columns) — what catalog.NewIndex and WithInclude build from the names.
// Returns nil when the merge degenerates (s adds nothing, or the key would
// be wider than maxKey), decided by counting the key union over IDs before
// anything is allocated.
func (mc *mergeColumns) merge(f, s int, clustered bool, maxKey int) *catalog.Index {
	fc, sc := mc.ix[f], mc.ix[s]
	// added reports whether s's key column i joins the merged key.
	added := func(i int) bool {
		c := sc.key[i]
		return !slices.Contains(fc.key, c) && !slices.Contains(sc.key[:i], c)
	}
	width := len(fc.key)
	for i := range sc.key {
		if added(i) {
			width++
		}
	}
	if width == len(fc.key) && len(sc.include) == 0 {
		return nil // s adds nothing
	}
	if width > maxKey {
		return nil
	}
	// Included columns: f's then s's, minus every key column of either
	// parent, each once; a clustered index has none.
	var incBuf [32]int32
	inc := incBuf[:0]
	if !clustered {
		for _, part := range [2][]int32{fc.include, sc.include} {
			for _, c := range part {
				if !slices.Contains(fc.key, c) && !slices.Contains(sc.key, c) && !slices.Contains(inc, c) {
					inc = append(inc, c)
				}
			}
		}
	}
	names := make([]string, 0, width+len(inc))
	for _, c := range fc.key {
		names = append(names, mc.lower[c])
	}
	for i, c := range sc.key {
		if added(i) {
			names = append(names, mc.lower[c])
		}
	}
	for _, c := range inc {
		names = append(names, mc.lower[c])
	}
	m := &catalog.Index{Table: fc.table, KeyColumns: names[:width:width], Clustered: clustered}
	if len(inc) > 0 {
		m.IncludeCols = names[width:]
	}
	return m
}

// mergeViews merges two views over the identical join (same tables, same
// join predicates): grouping columns, outputs and aggregates are unioned.
// The merged view answers every query either parent answers, at the price of
// a finer (larger) grouping. Returns nil when the views join differently.
func mergeViews(cat *catalog.Catalog, a, b *catalog.MaterializedView) *catalog.MaterializedView {
	if len(a.Tables) != len(b.Tables) {
		return nil
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			return nil
		}
	}
	if len(a.JoinPreds) != len(b.JoinPreds) {
		return nil
	}
	jset := map[string]bool{}
	for _, j := range a.JoinPreds {
		jset[j.String()] = true
	}
	for _, j := range b.JoinPreds {
		if !jset[j.String()] {
			return nil
		}
	}
	// Grouped ⊕ ungrouped does not merge: the SPJ parent needs raw rows.
	if (len(a.GroupBy) > 0) != (len(b.GroupBy) > 0) {
		return nil
	}
	groupBy := append(append([]catalog.ColRef(nil), a.GroupBy...), b.GroupBy...)
	out := append(append([]catalog.ColRef(nil), a.OutputColumns...), b.OutputColumns...)
	aggs := append(append([]catalog.Agg(nil), a.Aggs...), b.Aggs...)

	rows := estimateMergedRows(cat, a, b, groupBy)
	return catalog.NewMaterializedView(a.Tables, a.JoinPreds, out, groupBy, aggs, rows)
}

// estimateMergedRows estimates the merged view's cardinality: the product of
// the distinct counts of the merged grouping columns, capped by the sum of
// the parents' cardinalities times a small blow-up bound.
func estimateMergedRows(cat *catalog.Catalog, a, b *catalog.MaterializedView, groupBy []catalog.ColRef) int64 {
	if len(groupBy) == 0 {
		if a.Rows > b.Rows {
			return a.Rows
		}
		return b.Rows
	}
	distinct := 1.0
	seen := map[string]bool{}
	for _, c := range groupBy {
		if seen[c.String()] {
			continue
		}
		seen[c.String()] = true
		if t := cat.ResolveTable(c.Table); t != nil {
			distinct *= float64(t.DistinctOf(c.Column))
		}
	}
	cap := float64(a.Rows) * float64(b.Rows)
	if cap <= 0 {
		cap = distinct
	}
	if distinct > cap {
		distinct = cap
	}
	if distinct < 1 {
		distinct = 1
	}
	return int64(distinct)
}
