package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// TuneStaged is the staged-solution baseline of paper §3: instead of one
// integrated search, physical design features are chosen one feature at a
// time — e.g. first partitioning, then indexes, then materialized views —
// each stage keeping the previous stages' output fixed. The storage budget
// is split evenly across the storage-consuming stages, the ad-hoc decision
// the paper warns about. Example 2 of the paper shows why this can be
// strictly worse than the integrated search: committing to a clustered
// index on X in stage one forecloses (clustered on A + partitioned on X).
func TuneStaged(t Tuner, w *workload.Workload, opts Options, stages []FeatureMask) (*Recommendation, error) {
	if len(stages) == 0 {
		stages = []FeatureMask{FeaturePartitioning, FeatureIndexes, FeatureViews}
	}
	opts = opts.withDefaults()

	// Count the storage-consuming stages (partitioning is free).
	consuming := 0
	for _, st := range stages {
		if st.Has(FeatureIndexes) || st.Has(FeatureViews) {
			consuming++
		}
	}

	base := opts.BaseConfig
	if base == nil {
		base = catalog.NewConfiguration()
	}
	cur := base.Clone()
	var last *Recommendation
	totalCalls := int64(0)
	for i, stage := range stages {
		so := opts
		so.Features = stage
		so.BaseConfig = cur
		if opts.StorageBudget > 0 && consuming > 0 && (stage.Has(FeatureIndexes) || stage.Has(FeatureViews)) {
			so.StorageBudget = opts.StorageBudget / int64(consuming)
		}
		rec, err := Tune(t, w, so)
		if err != nil {
			return nil, fmt.Errorf("core: staged tuning stage %d (%s): %w", i+1, stage, err)
		}
		cur = rec.Config
		totalCalls += rec.WhatIfCalls
		last = rec
	}
	if last == nil {
		return nil, fmt.Errorf("core: no stages")
	}
	// Rebase the final report against the original base configuration. The
	// rebase is a session of its own under the caller's parallelism, retry
	// policy and fault injector; it reports no progress.
	tr := newTracker(context.Background(), Options{
		Parallelism: opts.Parallelism, Retry: opts.Retry, Faults: opts.Faults,
	}, time.Now())
	ev := newEvaluator(t, w, "", tr)
	baseCost, err := ev.configCost(base)
	if err != nil {
		return nil, err
	}
	finalCost, err := ev.configCost(cur)
	if err != nil {
		return nil, err
	}
	last.Config = cur
	last.BaseCost = baseCost
	last.Cost = finalCost
	if baseCost > 0 {
		last.Improvement = (baseCost - finalCost) / baseCost
	}
	last.NewStructures = newStructures(base, cur)
	last.StorageBytes = cur.StorageBytes(t.Catalog()) - base.StorageBytes(t.Catalog())
	last.WhatIfCalls = totalCalls + tr.calls.Load()
	return last, nil
}

// TuneITW emulates the Index Tuning Wizard of SQL Server 2000 (paper §7.6),
// the predecessor DTA is compared against end-to-end: indexes and
// materialized views only (no partitioning), no workload compression, no
// column-group restriction, no reduced-statistics creation, and no merged
// view candidates — the published [3] architecture without DTA's
// scalability devices.
func TuneITW(t Tuner, w *workload.Workload, opts Options) (*Recommendation, error) {
	opts = opts.withDefaults()
	opts.Features = FeatureIndexes | FeatureViews
	opts.NoCompression = true
	opts.NoColGroupRestriction = true
	opts.DisableStatReduction = true
	opts.Aligned = false
	return Tune(t, w, opts)
}

// Evaluate runs exploratory what-if analysis (paper §6.3): it costs the
// workload under base and under base+user configurations and reports the
// expected percentage change without recommending anything.
func Evaluate(t Tuner, w *workload.Workload, base, user *catalog.Configuration) (*Recommendation, error) {
	return Tune(t, w, Options{
		BaseConfig:    base,
		UserConfig:    user,
		EvaluateOnly:  true,
		NoCompression: true,
	})
}
