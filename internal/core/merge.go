package core

import (
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
func mergeCandidates(cat *catalog.Catalog, cands []catalog.Structure, benefit map[string]float64, opts Options, tr *tracker) []catalog.Structure {
	var pool *workerPool
	if tr != nil {
		pool = tr.pool
	}
	// mergePair computes the merged structures one (a, b) candidate pair
	// yields — pure CPU over the catalog, no shared state — so all pairs
	// run on the worker pool, canonical keys included.
	mergePair := func(a, b catalog.Structure) []catalog.Structure {
		switch {
		case a.Index != nil && b.Index != nil && a.Index.Table == b.Index.Table &&
			a.Index.Clustered == b.Index.Clustered:
			var ms []catalog.Structure
			if m := mergeIndexes(a.Index, b.Index, opts.MaxKeyColumns+2); m != nil {
				ms = append(ms, catalog.Structure{Index: m})
			}
			if m := mergeIndexes(b.Index, a.Index, opts.MaxKeyColumns+2); m != nil {
				ms = append(ms, catalog.Structure{Index: m})
			}
			return ms
		case a.View != nil && b.View != nil:
			if m := mergeViews(cat, a.View, b.View); m != nil {
				return []catalog.Structure{{View: m}}
			}
		case a.Part != nil && b.Part != nil && a.PartTable == b.PartTable &&
			a.Part.Column == b.Part.Column:
			merged := catalog.NewPartitionScheme(a.Part.Column,
				append(append([]float64(nil), a.Part.Boundaries...), b.Part.Boundaries...)...)
			return []catalog.Structure{{PartTable: a.PartTable, Part: merged}}
		}
		return nil
	}

	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	merged := make([][]derive.Keyed, len(pairs))
	pool.each(len(pairs), func(p int) {
		for _, s := range mergePair(cands[pairs[p].i], cands[pairs[p].j]) {
			merged[p] = append(merged[p], derive.Keyed{Key: s.Key(), Structure: s})
		}
	})

	// Fold sequentially in pair order: dedup against the pool and inherit
	// parent benefits exactly as the sequential pairwise loop did, so the
	// output order (and therefore everything downstream) is independent of
	// parallelism.
	out := append([]catalog.Structure(nil), cands...)
	keys := make([]string, len(cands))
	seen := map[string]bool{}
	for i, s := range cands {
		keys[i] = s.Key()
		seen[keys[i]] = true
	}
	for p, ms := range merged {
		a, b := keys[pairs[p].i], keys[pairs[p].j]
		for _, m := range ms {
			k := m.Key
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
			out = append(out, m.Structure)
			if benefit != nil {
				// A merged structure inherits the larger parent benefit so
				// pool capping does not starve it.
				ba, bb := benefit[a], benefit[b]
				if bb > ba {
					ba = bb
				}
				benefit[k] = ba
			}
		}
	}
	return out
}

// mergeIndexes builds first ⊕ second: first's key, then second's key columns
// not already present, with included columns unioned (minus key columns).
// Returns nil when the merge degenerates (identical key, or too wide).
func mergeIndexes(first, second *catalog.Index, maxKey int) *catalog.Index {
	key := append([]string(nil), first.KeyColumns...)
	have := map[string]bool{}
	for _, c := range key {
		have[c] = true
	}
	for _, c := range second.KeyColumns {
		if !have[c] {
			have[c] = true
			key = append(key, c)
		}
	}
	if len(key) == len(first.KeyColumns) && len(second.IncludeCols) == 0 {
		return nil // second adds nothing
	}
	if len(key) > maxKey {
		return nil
	}
	var include []string
	incSeen := map[string]bool{}
	for _, c := range append(append([]string(nil), first.IncludeCols...), second.IncludeCols...) {
		if !have[c] && !incSeen[c] {
			incSeen[c] = true
			include = append(include, c)
		}
	}
	m := catalog.NewIndex(first.Table, key...)
	m.Clustered = first.Clustered
	if len(include) > 0 && !m.Clustered {
		m = m.WithInclude(include...)
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
