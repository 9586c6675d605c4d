package core

import (
	"repro/internal/catalog"
	"repro/internal/derive"
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
// frontiers (the evaluator's tracker carries the session pool). There the
// evaluator mirrors applyAligned on its dense configurations — an index
// adopts its table's partitioning as an interned variant, a partitioning
// repartitions the table's indexes the same way — and materializes a catalog
// clone only for the children that need one; applyAligned stays safe there
// because it mutates only that clone. The alignment replay below is bookkeeping over
// cached decisions and stays sequential.
func enumerate(ev *evaluator, mandatory *catalog.Configuration, cands []derive.Keyed, opts Options) ([]catalog.Structure, error) {
	// The enumeration pool is the last candidate set of the session, shared
	// by every event; it also serves the final configuration costing and the
	// analysis reports.
	ev.setQueryPools(ev.sharedPools(cands))
	g := greedyOptions{
		m: opts.GreedyM, k: opts.GreedyK,
		budget: opts.StorageBudget,
		onStep: ev.tr.observeCost,
		scope:  "enumeration", query: -1,
	}

	if !opts.Aligned {
		chosen, _, err := greedySearch(ev, ev.all, ev.config(mandatory), cands, g)
		return structures(chosen), err
	}

	if opts.EagerAlignment {
		// Ablation mode: expand the pool with every aligned variant up
		// front and reject unaligned configurations during search.
		cands = expandAlignedVariants(cands)
		g.valid = func(cfg *catalog.Configuration) bool { return cfg.Aligned() }
		base := alignConfiguration(mandatory)
		chosen, _, err := greedySearch(ev, ev.all, ev.config(base), cands, g)
		return structures(chosen), err
	}

	// Lazy alignment.
	g.aligned = true
	base := alignConfiguration(mandatory)
	chosen, _, err := greedySearch(ev, ev.all, ev.config(base), cands, g)
	if err != nil {
		return nil, err
	}
	// The chosen structures are re-applied by the caller with plain
	// ApplyTo; return their aligned forms by replaying the applications.
	// Replaying also repartitions earlier picks, so the aligned forms are
	// read off the final configuration.
	cfg := base.Clone()
	for _, s := range chosen {
		applyAligned(cfg, s.Structure)
	}
	mandKeys := snapshotKeys(base)
	var aligned []catalog.Structure
	for _, s := range cfg.Structures() {
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
func expandAlignedVariants(cands []derive.Keyed) []derive.Keyed {
	out := append([]derive.Keyed(nil), cands...)
	seen := map[string]bool{}
	for _, s := range cands {
		seen[s.Key] = true
	}
	for _, p := range cands {
		if p.Structure.Part == nil {
			continue
		}
		for _, s := range cands {
			if s.Structure.Index == nil || s.Structure.Index.Table != p.Structure.PartTable {
				continue
			}
			v := s.Structure.Index.Clone()
			v.Partitioning = p.Structure.Part.Clone()
			st := derive.Keyed{Structure: catalog.Structure{Index: v}}
			st.Key = st.Structure.Key()
			if !seen[st.Key] {
				seen[st.Key] = true
				out = append(out, st)
			}
		}
	}
	return out
}
