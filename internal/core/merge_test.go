package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/journal"
	"repro/internal/optimizer"
)

// referenceMerge is the pairwise merging step as it was before merging
// counted key unions over column IDs: every candidate pair materialized,
// merged on the worker pool and folded in pair order. It is the oracle
// TestMergeCandidatesMatchesReference holds mergeCandidates to.
func referenceMerge(cat *catalog.Catalog, cands []catalog.Structure, benefit map[string]float64, tr *tracker) []catalog.Structure {
	mergePair := func(a, b catalog.Structure) []catalog.Structure {
		switch {
		case a.Index != nil && b.Index != nil && a.Index.Table == b.Index.Table &&
			a.Index.Clustered == b.Index.Clustered:
			var ms []catalog.Structure
			if m := referenceMergeIndexes(a.Index, b.Index, maxKeyColumns+2); m != nil {
				ms = append(ms, catalog.Structure{Index: m})
			}
			if m := referenceMergeIndexes(b.Index, a.Index, maxKeyColumns+2); m != nil {
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
	tr.pool.each(len(pairs), func(p int) {
		for _, s := range mergePair(cands[pairs[p].i], cands[pairs[p].j]) {
			merged[p] = append(merged[p], derive.Keyed{Key: s.Key(), Structure: s})
		}
	})

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
			benefit[k] = max(benefit[a], benefit[b])
		}
	}
	return out
}

// referenceMergeIndexes is index merging over column names, with maps.
func referenceMergeIndexes(first, second *catalog.Index, maxKey int) *catalog.Index {
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
		return nil
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

// mergeRun is one merging step's observable outcome: the output keys in
// order, the benefits afterwards, and the journal's merge events.
type mergeRun struct {
	keys    []string
	benefit map[string]float64
	events  []string
}

// runMerge runs merge over a copy of benefit at Parallelism 2 with a
// journal attached.
func runMerge(t *testing.T, benefit map[string]float64, merge func(map[string]float64, *tracker) []string) mergeRun {
	t.Helper()
	j := journal.New("merge")
	j.SetLimit(1 << 20)
	tr := newTracker(journal.WithContext(context.Background(), j), Options{Parallelism: 2}, time.Now())
	r := mergeRun{benefit: maps.Clone(benefit)}
	r.keys = merge(r.benefit, tr)
	for _, e := range j.Events(journal.KindMerge) {
		r.events = append(r.events, fmt.Sprintf("%s <- %q accepted=%v", e.Structure, e.Parents, e.Accepted))
	}
	return r
}

// mergeInputs seals a toy database — SYNT1 with indexes only, as it is
// benchmarked, the others with every feature — and returns its catalog, the per-structure benefits the search layer computes from the
// pool's gains, and two candidate sets: the sealed pool's, and the pool
// beside every structure candidate generation proposes for the workload.
func mergeInputs(tb testing.TB, name string) (*catalog.Catalog, map[string]float64, []catalog.Structure, []catalog.Structure) {
	tb.Helper()
	f := FeatureAll
	if name == "synt1" {
		f = FeatureIndexes
	}
	srv, w, pool, _ := sealedToy(tb, name, f)
	benefit := map[string]float64{}
	for _, g := range pool.Gains {
		for _, k := range g.Structures {
			benefit[k] += float64((g.BaseCost - g.BestCost) * w.Events[g.Query].Weight)
		}
	}
	generated := slices.Clone(pool.Candidates)
	seen := map[string]bool{}
	for _, s := range generated {
		seen[s.Key()] = true
	}
	for _, e := range w.Events {
		q, err := optimizer.Analyze(srv.Catalog(), e.Stmt)
		if err != nil {
			continue
		}
		for _, s := range GenerateCandidates(srv.Catalog(), q, Options{Features: f}) {
			if !seen[s.Key()] {
				seen[s.Key()] = true
				generated = append(generated, s)
			}
		}
	}
	return srv.Catalog(), benefit, pool.Candidates, generated
}

// TestMergeCandidatesMatchesReference: merging over interned column IDs,
// without a pairs slice, gives every toy database's candidate sets — the
// sealed pool's, and the pool beside every structure candidate generation
// proposes for the workload — exactly the reference implementation's output
// keys in the same order, the same inherited benefits and the same journal
// merge events.
func TestMergeCandidatesMatchesReference(t *testing.T) {
	for _, name := range []string{"synt1", "tpch", "psoft", "cust"} {
		t.Run(name, func(t *testing.T) {
			cat, benefit, pooled, generated := mergeInputs(t, name)
			for _, set := range []struct {
				name  string
				cands []catalog.Structure
			}{{"pool", pooled}, {"generated", generated}} {
				want := runMerge(t, benefit, func(b map[string]float64, tr *tracker) []string {
					return keysOf(keyed(referenceMerge(cat, set.cands, b, tr)))
				})
				got := runMerge(t, benefit, func(b map[string]float64, tr *tracker) []string {
					return keysOf(mergeCandidates(cat, keyed(set.cands), b, tr))
				})
				if set.name == "generated" && len(want.keys) == len(set.cands) {
					t.Fatalf("%s: %d candidates merged into nothing: the comparison is vacuous", set.name, len(set.cands))
				}
				if !slices.Equal(got.keys, want.keys) {
					t.Errorf("%s: output keys differ from the reference (%d vs %d)", set.name, len(got.keys), len(want.keys))
				}
				if !maps.Equal(got.benefit, want.benefit) {
					t.Errorf("%s: inherited benefits differ from the reference", set.name)
				}
				if !slices.Equal(got.events, want.events) {
					t.Errorf("%s: journal merge events differ from the reference (%d vs %d)", set.name, len(got.events), len(want.events))
				}
			}
		})
	}
}

// keysOf lists the keys of a keyed list, in order; each is checked against
// a fresh rendering of its structure.
func keysOf(ks []derive.Keyed) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		if k.Key != k.Structure.Key() {
			panic(fmt.Sprintf("structure %s carries key %q", k.Structure.Key(), k.Key))
		}
		out[i] = k.Key
	}
	return out
}

// BenchmarkMergeCandidates times the merging step over the toy SYNT1 and
// TPC-H candidate sets — each sealed pool beside every structure candidate
// generation proposes for its workload — at Parallelism 1, journal off.
// Run with -benchmem.
func BenchmarkMergeCandidates(b *testing.B) {
	for _, name := range []string{"synt1", "tpch"} {
		b.Run(name, func(b *testing.B) {
			cat, _, _, generated := mergeInputs(b, name)
			cands := keyed(generated)
			tr := testTracker()
			b.ReportMetric(float64(len(cands)), "candidates")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mergeCandidates(cat, cands, map[string]float64{}, tr)
			}
		})
	}
}
