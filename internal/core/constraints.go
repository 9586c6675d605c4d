package core

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/derive"
)

// Constraints is the complete input of the search layer beyond the costed
// pool itself: everything a DBA can change between revisions of the same
// tuning session without invalidating a single costed atom. The costing
// layer (candidate generation, statistics, baseline costing, per-query
// Greedy(m,k)) is deliberately independent of every field here — that
// independence is what makes Revise(pool, C) byte-identical to a fresh
// full run under C, with the search layer never issuing a what-if call
// the pool can't answer or derive.
type Constraints struct {
	// StorageBudget bounds the extra storage (bytes beyond the base
	// configuration) the enumeration search may spend; 0 = unlimited
	// (paper §4).
	StorageBudget int64 `json:"storageBudget,omitempty"`
	// Aligned requires every recommended index to be partition-aligned
	// with its table (paper §4).
	Aligned bool `json:"aligned,omitempty"`
	// Pinned is a partial configuration the recommendation must include
	// (paper §6.2): its structures are merged into the base before the
	// search, charged no storage, and never removed by drop analysis.
	Pinned *catalog.Configuration `json:"pinned,omitempty"`
	// Vetoed lists structure keys the search may not recommend: matching
	// candidates are filtered out of the enumeration pool both before
	// and after merging, so a vetoed structure cannot re-enter as a
	// merge of unvetoed parents.
	Vetoed []string `json:"vetoed,omitempty"`
	// SliceWeights rescales workload slices: template signature →
	// multiplier applied to every matching event's weight in workload
	// cost folds. Missing signatures keep multiplier 1. Per-event costs
	// (and hence the pool's skeleton facts) are weight-independent, so
	// reweighting is always answerable from the pool.
	SliceWeights map[string]float64 `json:"sliceWeights,omitempty"`
}

// SearchConstraints returns the Constraints value the options' search phase
// runs under. The service records it on each session so a revision can
// inherit the parent's constraints field-by-field.
func (o Options) SearchConstraints() Constraints { return o.constraints().normalize() }

// constraints maps a full-run Options to the Constraints value its search
// phase runs under, so the fresh path and the revision path share one
// search-layer entry point.
func (o Options) constraints() Constraints {
	return Constraints{
		StorageBudget: o.StorageBudget,
		Aligned:       o.Aligned,
		Pinned:        o.UserConfig,
		Vetoed:        o.Vetoed,
		SliceWeights:  o.SliceWeights,
	}
}

// validate rejects constraint values the search layer cannot honour.
func (c Constraints) validate(cat *catalog.Catalog) error {
	if c.Pinned != nil {
		if err := c.Pinned.Validate(cat); err != nil {
			return fmt.Errorf("core: pinned configuration invalid: %w", err)
		}
	}
	for sig, m := range c.SliceWeights {
		if m < 0 {
			return fmt.Errorf("core: negative slice-weight multiplier %g for template %q", m, sig)
		}
	}
	return nil
}

// pinnedKeys returns the structure keys of the pinned partial
// configuration, for drop analysis to skip.
func (c Constraints) pinnedKeys() map[string]bool {
	if c.Pinned == nil {
		return nil
	}
	return snapshotKeys(c.Pinned)
}

// vetoFilter returns cands minus the vetoed structure keys, preserving
// order. The input slice is never mutated.
func (c Constraints) vetoFilter(cands []derive.Keyed) []derive.Keyed {
	if len(c.Vetoed) == 0 {
		return cands
	}
	veto := map[string]bool{}
	for _, k := range c.Vetoed {
		veto[k] = true
	}
	out := make([]derive.Keyed, 0, len(cands))
	for _, s := range cands {
		if !veto[s.Key] {
			out = append(out, s)
		}
	}
	return out
}

// normalize canonicalizes the value for serialization and comparison:
// vetoes sorted and deduplicated, empty containers nilled out.
func (c Constraints) normalize() Constraints {
	if len(c.Vetoed) > 0 {
		c.Vetoed = dedupStrings(append([]string(nil), c.Vetoed...))
		sort.Strings(c.Vetoed)
	} else {
		c.Vetoed = nil
	}
	if len(c.SliceWeights) == 0 {
		c.SliceWeights = nil
	}
	if c.Pinned != nil && len(c.Pinned.Indexes) == 0 && len(c.Pinned.Views) == 0 && len(c.Pinned.TableParts) == 0 {
		c.Pinned = nil
	}
	return c
}
