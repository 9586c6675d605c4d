package core

import (
	"repro/internal/catalog"
)

// enumerate runs the Enumeration step (paper §2.2): a Greedy(m,k) search
// over the union of candidates (including merged ones) with the full
// workload cost function, under the storage budget and, when requested, the
// alignment constraint of §4.
//
// Alignment is enforced lazily: instead of eagerly populating the candidate
// pool with every (index × partitioning) aligned variant — which is
// unscalable — the search keeps the plain candidates and adapts them at
// application time: an index added to a configuration adopts the table's
// current partitioning, and choosing a partitioning for a table
// repartitions the indexes already chosen on it. This is the lazy
// introduction of alignment candidates described in [4].
//
// The evaluation loops run concurrently through greedySearch's worker-pool
// frontiers (the tracker carries the session pool). There the evaluator
// mirrors applyAligned on its dense configurations — an index adopts its
// table's partitioning as an interned variant, a partitioning repartitions
// the table's indexes the same way — and materializes a catalog clone only
// for the children that need one; applyAligned stays safe there because it
// mutates only that clone. The alignment replay below is bookkeeping over
// cached decisions and stays sequential.
func enumerate(ev *evaluator, tr *tracker, mandatory *catalog.Configuration, cands []catalog.Structure, opts Options) ([]catalog.Structure, error) {
	// The enumeration pool is the last candidate set of the session; it
	// also serves the final configuration costing and the analysis reports.
	ev.setDerivePool(cands)
	g := greedyOptions{
		m: opts.GreedyM, k: opts.GreedyK,
		budget: opts.StorageBudget, tr: tr,
		onStep: func(c float64) { tr.observeCost(c) },
		scope:  "enumeration", query: -1,
	}

	if !opts.Aligned {
		return greedySearch(ev, ev.all, mandatory, cands, g)
	}

	if opts.EagerAlignment {
		// Ablation mode: expand the pool with every aligned variant up
		// front and reject unaligned configurations during search.
		cands = expandAlignedVariants(cands)
		g.valid = func(cfg *catalog.Configuration) bool { return cfg.Aligned() }
		base := alignConfiguration(mandatory)
		return greedySearch(ev, ev.all, base, cands, g)
	}

	// Lazy alignment.
	g.aligned = true
	base := alignConfiguration(mandatory)
	chosen, err := greedySearch(ev, ev.all, base, cands, g)
	if err != nil {
		return nil, err
	}
	// The chosen structures are re-applied by the caller with plain
	// ApplyTo; return their aligned forms by replaying the applications.
	cfg := base.Clone()
	var aligned []catalog.Structure
	for _, s := range chosen {
		before := snapshotKeys(cfg)
		applyAligned(cfg, s)
		for _, ns := range cfg.Structures() {
			if !before[ns.Key()] {
				aligned = append(aligned, ns)
			}
		}
	}
	// Replaying also surfaces repartitioned versions of earlier picks; the
	// final configuration is authoritative, so rebuild from it.
	final := cfg
	mandKeys := snapshotKeys(alignConfiguration(mandatory))
	aligned = aligned[:0]
	for _, s := range final.Structures() {
		if !mandKeys[s.Key()] {
			aligned = append(aligned, s)
		}
	}
	return aligned, nil
}

func snapshotKeys(cfg *catalog.Configuration) map[string]bool {
	out := map[string]bool{}
	for _, s := range cfg.Structures() {
		out[s.Key()] = true
	}
	return out
}

// applyAligned adds a structure maintaining the alignment invariant.
func applyAligned(cfg *catalog.Configuration, s catalog.Structure) bool {
	switch {
	case s.Index != nil:
		ix := s.Index.Clone()
		ix.Partitioning = cfg.TablePartitioning(ix.Table).Clone()
		return cfg.AddIndex(ix)
	case s.Part != nil:
		if cfg.TablePartitioning(s.PartTable).Same(s.Part) {
			return false
		}
		cfg.SetTablePartitioning(s.PartTable, s.Part.Clone())
		// Repartition every index already chosen on the table.
		for _, ix := range cfg.IndexesOn(s.PartTable) {
			ix.Partitioning = s.Part.Clone()
		}
		return true
	default:
		return s.ApplyTo(cfg)
	}
}

// alignConfiguration clones cfg with every index repartitioned to match its
// table (the mandatory part of the design must satisfy the constraint too).
func alignConfiguration(cfg *catalog.Configuration) *catalog.Configuration {
	out := cfg.Clone()
	for _, ix := range out.Indexes {
		ix.Partitioning = out.TablePartitioning(ix.Table).Clone()
	}
	return out
}

// expandAlignedVariants eagerly generates, for every (index candidate,
// partitioning candidate) pair on the same table, the partitioned variant of
// the index. The pool can grow multiplicatively — the cost the lazy scheme
// avoids.
func expandAlignedVariants(cands []catalog.Structure) []catalog.Structure {
	out := append([]catalog.Structure(nil), cands...)
	seen := map[string]bool{}
	for _, s := range cands {
		seen[s.Key()] = true
	}
	for _, p := range cands {
		if p.Part == nil {
			continue
		}
		for _, s := range cands {
			if s.Index == nil || s.Index.Table != p.PartTable {
				continue
			}
			v := s.Index.Clone()
			v.Partitioning = p.Part.Clone()
			st := catalog.Structure{Index: v}
			if !seen[st.Key()] {
				seen[st.Key()] = true
				out = append(out, st)
			}
		}
	}
	return out
}
