// Package core implements the Database Tuning Advisor itself: the
// architecture of paper §2.2 — column-group restriction, per-query candidate
// selection via Greedy(m,k) over what-if optimizer calls, merging, and
// global enumeration under storage, alignment, feature-set, and
// user-specified-configuration constraints — plus the staged-tuning and
// Index-Tuning-Wizard baselines the paper evaluates against.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Tuner is the advisor's view of a database server: the what-if interfaces
// plus statistics management. *whatif.Server and *testsrv.Session satisfy it.
type Tuner interface {
	Catalog() *catalog.Catalog
	// WhatIfCost returns the optimizer-estimated cost of the statement as if
	// cfg were materialized, plus the keys of the structures the plan uses.
	WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error)
	// EnsureStatistics creates missing statistics (reduced per §5.2 when
	// reduce is set) and returns how many were created.
	EnsureStatistics(reqs []stats.Request, reduce bool) (int, error)
	// WhatIfCallCount reports the cumulative number of what-if calls.
	WhatIfCallCount() int64
}

// AlternativesTuner is an optional Tuner extension: a backend that can
// return the plan skeleton of the optimized statement together with its cost
// (one optimization, charged as one what-if call). The evaluator builds a
// derivation engine iff the backend implements it: the engine fetches one
// skeleton per (event, candidate pool) and replays every configuration's
// cost from it. A Tuner without it is costed by plain real calls — the
// oracle derivation is tested against.
type AlternativesTuner interface {
	WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error)
}

// FeatureMask selects which physical design features to tune (paper §2.1:
// "DBAs may sometimes need to limit tuning to subsets of these features").
type FeatureMask uint8

// Feature bits.
const (
	FeatureIndexes FeatureMask = 1 << iota
	FeatureViews
	FeaturePartitioning
	FeatureAll = FeatureIndexes | FeatureViews | FeaturePartitioning
)

// Has reports whether the mask includes the feature.
func (m FeatureMask) Has(f FeatureMask) bool { return m&f != 0 }

// String renders the mask.
func (m FeatureMask) String() string {
	switch m {
	case FeatureAll:
		return "indexes+views+partitioning"
	}
	s := ""
	if m.Has(FeatureIndexes) {
		s += "+indexes"
	}
	if m.Has(FeatureViews) {
		s += "+views"
	}
	if m.Has(FeaturePartitioning) {
		s += "+partitioning"
	}
	if s == "" {
		return "none"
	}
	return s[1:]
}

// Options mirrors the inputs of paper §2.1.
type Options struct {
	// Features limits tuning to a subset of physical design features.
	// Zero means FeatureAll.
	Features FeatureMask
	// StorageBudget bounds the extra storage (bytes) the recommendation may
	// consume. Zero means unbounded.
	StorageBudget int64
	// Aligned requires every table and all of its indexes to be partitioned
	// identically (paper §4).
	Aligned bool
	// BaseConfig holds structures that already exist and always remain
	// (e.g. indexes enforcing referential integrity). Its storage does not
	// count against the budget.
	BaseConfig *catalog.Configuration
	// UserConfig is a user-specified partial configuration the
	// recommendation must include (paper §6.2). Its storage counts against
	// the budget.
	UserConfig *catalog.Configuration
	// EvaluateOnly skips tuning and only evaluates BaseConfig+UserConfig
	// against BaseConfig (exploratory analysis, paper §6.3).
	EvaluateOnly bool
	// AllowDrops lets the advisor recommend dropping existing BaseConfig
	// structures whose maintenance outweighs their benefit (the shipped
	// tool's "keep existing physical design" checkbox, unchecked).
	// Structures marked FromConstraint are never dropped.
	AllowDrops bool

	// CompressWorkload enables workload compression (paper §5.1). Default
	// is on for workloads above 50 events.
	CompressWorkload bool
	NoCompression    bool // force compression off

	// NoColGroupRestriction disables the restriction (ITW-style search).
	NoColGroupRestriction bool

	// GreedyM and GreedyK parameterize the enumeration step's Greedy(m,k)
	// (paper §2.2): the seed is chosen optimally among subsets of size ≤ m,
	// then grown greedily to at most k structures. Defaults: m=1, k=24.
	GreedyM int
	GreedyK int

	// Derive selects the cost-derivation layer's mode: on (also the zero
	// value) or verify. Cost-cache misses, SELECT and DML alike, are
	// answered by replaying a plan skeleton fetched once per (event,
	// candidate pool) instead of a what-if optimizer call each
	// (INUM/CoPhy-style); a fetch that fails fails the evaluation, with no
	// second real call behind it. Recommendations are byte-identical to a
	// real-call evaluator's, only the optimizer call count drops. Verify
	// cross-checks every derived cost against a real call and fails the
	// session on divergence beyond derive.VerifyTolerance. Backends without
	// AlternativesTuner are costed by real calls regardless.
	Derive derive.Mode

	// NoMerging disables the merging step (for ablation).
	NoMerging bool
	// EagerAlignment materializes aligned candidate variants up front
	// instead of lazily (for the §4 ablation).
	EagerAlignment bool

	// ReduceStatistics applies §5.2 when creating statistics. Default on;
	// set DisableStatReduction for ablation.
	DisableStatReduction bool

	// TimeLimit bounds tuning time (0 = unbounded).
	TimeLimit time.Duration

	// Parallelism bounds how many what-if evaluations run concurrently:
	// greedy frontiers, seed enumeration, workload costings, and merging all
	// fan out over a session-wide worker pool of this size. The default
	// (≤ 0) is runtime.GOMAXPROCS(0). Recommendations are byte-identical at
	// every level — parallel sweeps reduce deterministically — so the knob
	// trades only wall-clock time, never result quality.
	Parallelism int

	// Progress, when set, receives live progress snapshots: phase
	// transitions, per-query completions, and periodic what-if call counts.
	// The callback runs synchronously on the tuning goroutine; keep it
	// fast, and do your own locking if snapshots cross goroutines.
	Progress func(Progress)

	// SkipReports suppresses the per-event analysis reports (useful when
	// tuning traces of hundreds of thousands of events).
	SkipReports bool

	// Metrics, when set, receives the session's pipeline metrics: phase
	// durations, candidates per query, merge/enumeration pool sizes, greedy
	// steps. The what-if latency histograms live one layer down (the tuner's
	// server observes them; see whatif.Server.SetMetrics), and spans travel
	// on the context instead (obs.WithTrace). The tuning service shares one
	// registry across every backend and session.
	Metrics *obs.Registry

	// Retry is the backoff policy wrapped around every what-if optimizer
	// call and statistics operation (zero fields get fault.Policy
	// defaults: 4 attempts, 2ms base backoff). Long tuning sessions
	// against production servers must ride out transient failures
	// (paper §2, §6) rather than abort hours in.
	Retry fault.Policy

	// Faults, when set, is a session-scoped fault injector consulted
	// before each what-if call (site "whatif") and statistics operation
	// (site "stats"), so failure paths are testable deterministically.
	// Server-scoped injection attaches to whatif.Server instead.
	Faults *fault.Injector

	// CheckpointSink, when set, receives periodic Checkpoint snapshots of
	// the session's restartable state (the cost cache plus progress
	// markers), every CheckpointEvery what-if calls (default 128) from
	// candidate selection's statistics pass on. The
	// tuning service persists them under its -state-dir so a killed
	// server resumes in-flight sessions on restart.
	CheckpointSink  func(*Checkpoint)
	CheckpointEvery int

	// Ingest declares that the workload was already compressed online
	// during ingestion (workload.StreamTrace feeding a workload.Compressor)
	// and carries the raw-trace volume the compressor absorbed. When set,
	// the advisor skips its own compression pass — re-compressing the
	// representatives would double-fold weights — and stamps the ingest
	// counters into Progress snapshots and the Recommendation. The
	// workload handed to Tune must then be the Compressor's output.
	Ingest *IngestStats

	// Resume warm-starts the session from a previously captured
	// Checkpoint: replayed decisions are served from the restored cost
	// cache instead of optimizer calls, so the session re-reaches the
	// interruption point cheaply and then continues. With a deterministic
	// backend, a resumed session produces the same recommendation as an
	// uninterrupted one. A checkpoint failing Checkpoint.Check (one written
	// by an older binary, say) fails the session rather than being misread.
	Resume *Checkpoint

	// Vetoed lists structure keys the search may not recommend
	// (Constraints.Vetoed): matching candidates are filtered out of the
	// enumeration pool both before and after merging, so a vetoed
	// structure cannot re-enter as a merge of unvetoed parents. A
	// search-layer constraint — revisable against a costed pool without
	// new optimizer calls.
	Vetoed []string

	// SliceWeights rescales workload slices in the search layer's cost
	// folds: template signature → multiplier on every matching event's
	// weight (Constraints.SliceWeights). Per-event costs are
	// weight-independent, so reweighting never issues new optimizer calls.
	SliceWeights map[string]float64

	// PoolSink, when set, receives the session's sealed CostedPool after a
	// successful, uninterrupted run: the serializable costing-layer state
	// (candidates, costed atoms, derive facts, statistics log) that
	// Revise re-searches under new Constraints without re-costing. Not
	// invoked for EvaluateOnly or early-stopped sessions, whose costing
	// state is incomplete.
	PoolSink func(*CostedPool)
}

// IngestStats describes a workload compressed online while its trace was
// streamed in: how many raw events and bytes went through the compressor and
// how many statement templates it observed. The compressed workload itself
// (the representatives) is what gets tuned; these counters preserve the
// original trace's scale for progress reporting and the final recommendation.
type IngestStats struct {
	// Events is the number of raw trace events folded into the compressor.
	Events int64
	// Bytes is the number of trace bytes consumed.
	Bytes int64
	// Templates is the number of distinct statement templates observed.
	Templates int
}

func (o Options) features() FeatureMask {
	if o.Features == 0 {
		return FeatureAll
	}
	return o.Features
}

func (o Options) withDefaults() Options {
	if o.GreedyM <= 0 {
		o.GreedyM = 1
	}
	if o.GreedyK <= 0 {
		o.GreedyK = 24
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// QueryReport describes one workload event's before/after costs.
type QueryReport struct {
	SQL            string
	Weight         float64
	CostBefore     float64
	CostAfter      float64
	UsedStructures []string
}

// UsageReport aggregates how one recommended (or existing) structure is used
// across the workload — part of the "rich set of analysis reports" of §6.3.
type UsageReport struct {
	Structure string // structure key
	// Queries is the number of distinct workload events whose plan uses the
	// structure; WeightedUses counts event weights.
	Queries      int
	WeightedUses float64
	// CostShare is the fraction of the recommended-configuration workload
	// cost spent in statements using this structure.
	CostShare float64
}

// Recommendation is the advisor's output (paper §2.1): a configuration plus
// analysis reports.
type Recommendation struct {
	// Config is the full recommended configuration (base + user + new).
	Config *catalog.Configuration
	// NewStructures are the structures DTA added beyond BaseConfig.
	NewStructures []catalog.Structure

	BaseCost    float64 // workload cost under BaseConfig
	Cost        float64 // workload cost under Config
	Improvement float64 // (BaseCost − Cost) / BaseCost
	// StorageBytes is the extra storage of the recommendation beyond
	// BaseConfig.
	StorageBytes int64

	// StopReason records why tuning stopped early (StopTimeLimit,
	// StopCancelled, or StopDegraded); empty when the search ran to
	// completion. An early-stopped session still returns the best design
	// found so far (anytime behaviour, paper §2.1).
	StopReason string

	EventsTuned    int
	TemplatesTuned int
	// SkippedEvents counts statements that did not resolve against the
	// catalog and were excluded (the tool tunes what it can, like the
	// shipped DTA, rather than failing the session).
	SkippedEvents int
	WhatIfCalls   int64
	// DerivedEvals counts cost evaluations answered by the derivation
	// layer instead of a what-if optimizer call; zero over a backend
	// without plan skeletons.
	DerivedEvals int64
	// DeriveFallbacks counts the real optimizer calls behind derivation —
	// the plan skeletons fetched — by event shape: "atom" for single-scope
	// SELECTs and DML, "atom-join" for joins. Every successful real call
	// of a derivation session is one; nil without an engine.
	DeriveFallbacks map[string]int64
	StatsCreated    int
	Duration        time.Duration
	Compressed      bool
	// IngestedEvents and IngestedBytes record streaming-ingest volume
	// (Options.Ingest): how many raw trace events and bytes were folded
	// into the online compressor to produce the tuned workload. Zero for
	// sessions not created from a streamed trace.
	IngestedEvents int64
	IngestedBytes  int64

	Reports []QueryReport
	// Usage aggregates structure usage across the workload (§6.3), sorted
	// by descending weighted use count.
	Usage []UsageReport
	// DroppedStructures lists BaseConfig structures the advisor recommends
	// removing (only with Options.AllowDrops).
	DroppedStructures []catalog.Structure
}

// String summarizes the recommendation.
func (r *Recommendation) String() string {
	return fmt.Sprintf("recommendation: %d structures, improvement %.1f%%, storage %.1f MB, %d events tuned in %s",
		len(r.NewStructures), 100*r.Improvement, float64(r.StorageBytes)/(1<<20), r.EventsTuned, r.Duration.Round(time.Millisecond))
}

// Tune produces an integrated physical design recommendation for the
// workload (paper §2.2 pipeline).
func Tune(t Tuner, w *workload.Workload, opts Options) (*Recommendation, error) {
	return TuneContext(context.Background(), t, w, opts)
}

// TuneContext is Tune under a context: cancelling ctx stops the search
// within one what-if optimizer call and returns the best recommendation
// found so far, with StopReason set to StopCancelled. Only cancellation
// before the baseline workload costing completes returns an error (there is
// no meaningful partial result yet).
//
// Internally the pipeline runs as two explicit layers: buildCostedState
// (the costing layer — compression, baseline, column groups, candidate
// selection, statistics; everything expensive and constraint-independent)
// followed by runSearch (the search layer — drops, merging, enumeration
// under a Constraints value; cheap and re-runnable). Revise re-enters
// runSearch against a persisted CostedPool without re-running the first
// layer.
func TuneContext(ctx context.Context, t Tuner, w *workload.Workload, opts Options) (*Recommendation, error) {
	opts = opts.withDefaults()
	mode, err := derive.ParseMode(string(opts.Derive))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts.Derive = mode
	start := time.Now()
	// The tune span is the pipeline's root: under the service it nests in
	// the session span, standalone (dta -trace) it is the timeline itself.
	ctx, tuneSpan := obs.StartSpan(ctx, "pipeline", "tune")
	defer tuneSpan.End()
	tr := newTracker(ctx, opts, start)

	cons := opts.constraints().normalize()
	if err := cons.validate(t.Catalog()); err != nil {
		return nil, err
	}

	st, rec, err := buildCostedState(ctx, t, w, opts, tr, tuneSpan)
	if err != nil {
		return nil, err
	}

	if opts.EvaluateOnly {
		mandatory := st.base.Clone()
		mandatory.Merge(opts.UserConfig)
		rec.Config = mandatory.Clone()
		return finishRecommendation(t, st.ev, rec, st.base, mandatory, opts, start)
	}

	rec, err = runSearch(t, st, rec, cons, opts, start)
	if err != nil {
		return nil, err
	}
	if opts.PoolSink != nil && rec.StopReason == "" {
		opts.PoolSink(st.seal(opts))
	}
	return rec, nil
}

// costedState is the in-memory form of the costing layer's output — what a
// CostedPool serializes. It is immutable under runSearch: the search layer
// works on clones and local maps, so the same state can be searched any
// number of times (fresh run, then revisions) with byte-identical results
// per Constraints value.
type costedState struct {
	ev    *evaluator
	tuned *workload.Workload
	// base is the validated base configuration candidate selection ran
	// against (before any drop analysis, which is a search-layer decision).
	base *catalog.Configuration
	// cands is the candidate pool, each candidate with its key.
	cands        []derive.Keyed
	gains        []QueryGain
	statBatches  []StatBatch
	statsCreated int
	// templates is the tuned workload's distinct template count.
	templates    int
	compressed   bool
	ingestEvents int64
	ingestBytes  int64
}

// buildCostedState runs the costing layer: workload compression, baseline
// costing, column-group restriction, and per-query candidate selection
// (with statistics creation). Everything here is deliberately independent
// of every Constraints field — storage budget, alignment, pins, vetoes,
// slice weights — which is what makes the produced state reusable across
// revisions: the search layer can be re-run under any constraints and
// produce exactly what a fresh full run under those constraints would.
// With opts.EvaluateOnly the candidate stages are skipped (the caller only
// evaluates a fixed configuration).
func buildCostedState(ctx context.Context, t Tuner, w *workload.Workload, opts Options, tr *tracker, tuneSpan *obs.Span) (*costedState, *Recommendation, error) {
	base := opts.BaseConfig
	if base == nil {
		base = catalog.NewConfiguration()
	}
	if err := base.Validate(t.Catalog()); err != nil {
		return nil, nil, fmt.Errorf("core: base configuration invalid: %w", err)
	}

	// Workload compression (§5.1), above 50 events, keeping
	// workload.CompressOptions' default of 4 representatives per template.
	// A workload that arrived through the streaming-ingest path
	// (Options.Ingest) is already the online compressor's output:
	// re-compressing it would fold representative weights a second time, so
	// it is tuned as-is.
	const compressThreshold = 50
	tuned := w
	compressed := false
	switch {
	case opts.Ingest != nil:
		compressed = opts.Ingest.Events > int64(w.Len())
	case !opts.NoCompression && (opts.CompressWorkload || w.Len() > compressThreshold):
		tuned = workload.Compress(w, workload.CompressOptions{})
		compressed = tuned.Len() < w.Len()
	}
	tr.eventsTotal = tuned.Len()
	tuneSpan.SetInt("events", tuned.Len()).SetBool("compressed", compressed)

	ev := newEvaluator(t, tuned, opts.Derive, tr)
	if opts.Resume != nil {
		if err := opts.Resume.Check(); err != nil {
			return nil, nil, err
		}
	}
	tr.setPhase(PhaseBaseline)
	baseCost, err := ev.configCost(base)
	if err != nil {
		if stopping(err) {
			return nil, nil, fmt.Errorf("core: session cancelled before baseline costing completed: %w", ctx.Err())
		}
		return nil, nil, err
	}
	tr.baseCost = baseCost

	rec := &Recommendation{
		BaseCost:    baseCost,
		EventsTuned: tuned.Len(),
		Compressed:  compressed,
	}
	if opts.Ingest != nil {
		rec.IngestedEvents = opts.Ingest.Events
		rec.IngestedBytes = opts.Ingest.Bytes
	}
	rec.TemplatesTuned = len(tuned.Templates())
	rec.SkippedEvents = ev.skippedEvents()
	rec.EventsTuned -= rec.SkippedEvents

	st := &costedState{ev: ev, tuned: tuned, base: base, templates: rec.TemplatesTuned, compressed: compressed}
	if opts.Ingest != nil {
		st.ingestEvents = opts.Ingest.Events
		st.ingestBytes = opts.Ingest.Bytes
	}
	if opts.EvaluateOnly {
		return st, rec, nil
	}

	if !tr.stopped() {
		// Column-group restriction (§2.2).
		tr.setPhase(PhaseColGroups)
		groups, err := interestingColumnGroups(t, ev, tuned, opts)
		if err != nil && !stopping(err) {
			return nil, nil, err
		}
		if err == nil {
			// Candidate selection (§2.2): per-query best configurations,
			// measured against the base configuration only — pins, budgets,
			// and weights are search-layer constraints and must not leak in.
			tr.setPhase(PhaseCandidates)
			st.cands, st.gains, st.statBatches, st.statsCreated, err = selectCandidates(t, ev, tuned, base, groups, opts)
			if err != nil {
				return nil, nil, err
			}
			rec.StatsCreated = st.statsCreated
		}
	}
	return st, rec, nil
}

// runSearch is the search layer: drop analysis, benefit computation,
// merging, pool capping, and the enumeration Greedy(m,k), all under one
// Constraints value. It consumes the costed state read-only and never
// issues a what-if call the state's cache or derivation facts can't answer
// — except for configurations the constraints make newly reachable, which
// a fresh full run under the same constraints would also have to cost. The
// fresh pipeline and Revise both funnel through this one function, which is
// what makes revision equivalence hold by construction.
func runSearch(t Tuner, st *costedState, rec *Recommendation, cons Constraints, opts Options, start time.Time) (*Recommendation, error) {
	// Graft the constraints onto the Options downstream consumers read, so
	// enumerate/merge/finish observe exactly a fresh run's view.
	opts.StorageBudget = cons.StorageBudget
	opts.Aligned = cons.Aligned
	opts.UserConfig = cons.Pinned

	ev, tr := st.ev, st.ev.tr
	ev.applySliceWeights(cons.SliceWeights)

	// Baseline under the effective weights. In a fresh run that created
	// statistics this is where the baseline is costed under them (the epoch
	// bump started a new fact scope; events without candidates fetch their
	// skeleton afresh). A revision's is a pure re-fold of cached costs,
	// without optimizer calls.
	baseCost, err := ev.configCost(st.base)
	if err != nil {
		if stopping(err) {
			return nil, fmt.Errorf("core: session cancelled before baseline costing completed: %w", tr.ctx.Err())
		}
		return nil, err
	}
	tr.baseCost = baseCost
	rec.BaseCost = baseCost

	base := st.base
	// Drop existing structures that cost more than they help (improvement
	// is measured against the original base, so drops count as gains).
	// Pinned structures are never dropped.
	if opts.AllowDrops && !tr.stopped() {
		tr.setPhase(PhaseDrops)
		reduced, dropped, err := greedyDrop(ev, base, cons.pinnedKeys())
		switch {
		case err != nil && !stopping(err):
			return nil, err
		case err == nil && len(dropped) > 0:
			base = reduced
			rec.DroppedStructures = dropped
		}
	}

	// The mandatory part of every configuration: surviving base structures
	// plus the pinned partial design (paper §6.2).
	mandatory := base.Clone()
	mandatory.Merge(cons.Pinned)
	rec.Config = mandatory.Clone()

	// Per-structure benefits under the effective weights, recomputed from
	// the pool's unweighted per-query gains — identical to what candidate
	// selection accumulated when the weights are the workload's own.
	benefit := map[string]float64{}
	for _, g := range st.gains {
		// Rounded before it is summed (no fused multiply-add; see fold).
		wg := float64((g.BaseCost - g.BestCost) * ev.eventWeight(g.Query))
		for _, key := range g.Structures {
			benefit[key] += wg
		}
	}
	cands := cons.vetoFilter(st.cands)

	// Merging (§2.2). The veto filter runs again on the merged pool:
	// merging can synthesize a structure identical to a vetoed one from
	// unvetoed parents, and "vetoed" means the search may not recommend
	// that structure however it arises.
	if !opts.NoMerging && !tr.stopped() {
		tr.setPhase(PhaseMerging)
		before := len(cands)
		cands = cons.vetoFilter(mergeCandidates(t.Catalog(), cands, benefit, tr))
		if opts.Metrics != nil {
			opts.Metrics.Histogram("dta_merge_pool_size",
				"Candidate pool size entering/leaving the merging step (§2.2).",
				obs.CountBuckets, "side", "in").Observe(float64(before))
			opts.Metrics.Histogram("dta_merge_pool_size",
				"Candidate pool size entering/leaving the merging step (§2.2).",
				obs.CountBuckets, "side", "out").Observe(float64(len(cands)))
		}
	}

	// Bound the enumeration pool by benefit.
	const candidatePoolCap = 48
	cands = capCandidates(cands, benefit, candidatePoolCap)
	if opts.Metrics != nil {
		opts.Metrics.Histogram("dta_enumeration_pool_size",
			"Candidates entering the enumeration Greedy(m,k).",
			obs.CountBuckets).Observe(float64(len(cands)))
	}

	// Enumeration (§2.2, §4): Greedy(m,k) under storage and alignment.
	tr.setPhase(PhaseEnumeration)
	chosen, err := enumerate(ev, mandatory, cands, opts)
	if err != nil {
		return nil, err
	}
	finalCfg := mandatory.Clone()
	for _, s := range chosen {
		s.ApplyTo(finalCfg)
	}
	rec.Config = finalCfg

	return finishRecommendation(t, ev, rec, base, finalCfg, opts, start)
}

// finishRecommendation fills cost, storage, and per-query reports. The
// tracker enters finishing mode first: the final configuration's cost is
// (almost always) served from the evaluator cache, and the few residual
// what-if calls must complete even for a stopped session so the partial
// recommendation carries real costs.
func finishRecommendation(t Tuner, ev *evaluator, rec *Recommendation, base, final *catalog.Configuration, opts Options, start time.Time) (*Recommendation, error) {
	tr := ev.tr
	rec.StopReason = tr.stopReason()
	tr.finishing = true
	cost, err := ev.configCost(final)
	if err != nil {
		return nil, err
	}
	// Never recommend a configuration worse than doing nothing: fall back
	// to the base configuration (this is what lets DTA correctly recommend
	// "no new structures" for update-hostile workloads, paper §7.1 CUST3).
	if cost > rec.BaseCost {
		final = base.Clone()
		final.Merge(opts.UserConfig)
		cost, err = ev.configCost(final)
		if err != nil {
			return nil, err
		}
		rec.Config = final
	}
	rec.Cost = cost
	if rec.BaseCost > 0 {
		rec.Improvement = (rec.BaseCost - cost) / rec.BaseCost
	}
	rec.NewStructures = newStructures(base, final)
	rec.StorageBytes = final.StorageBytes(t.Catalog()) - base.StorageBytes(t.Catalog())
	if rec.StorageBytes < 0 {
		rec.StorageBytes = 0
	}

	tr.observeCost(cost)

	// Per-query analysis reports (paper §6.3). A cancelled or degraded session skips
	// them: the caller asked the advisor to stop working, and the partial
	// recommendation's headline numbers are already in place.
	if opts.SkipReports || tr.cancelled.Load() || tr.degraded.Load() {
		return sealRecommendation(ev, rec, start), nil
	}
	tr.setPhase(PhaseReports)
	usage := map[string]*UsageReport{}
	var totalAfter float64
	cbase, cfinal := ev.config(base), ev.config(final)
	for i, e := range ev.events {
		if ev.analyzed(i) == nil {
			continue // skipped statement: no report
		}
		before, err := ev.eval(i, cbase, nil)
		if err != nil {
			return nil, err
		}
		after, err := ev.eval(i, cfinal, nil)
		if err != nil {
			return nil, err
		}
		used, err := ev.used(i, cfinal)
		if err != nil {
			return nil, err
		}
		rec.Reports = append(rec.Reports, QueryReport{
			SQL: e.SQL, Weight: e.Weight, CostBefore: before, CostAfter: after, UsedStructures: used,
		})
		totalAfter += float64(e.Weight * after)
		for _, key := range used {
			u := usage[key]
			if u == nil {
				u = &UsageReport{Structure: key}
				usage[key] = u
			}
			u.Queries++
			u.WeightedUses += e.Weight
			u.CostShare += float64(e.Weight * after)
		}
	}
	for _, u := range usage {
		if totalAfter > 0 {
			u.CostShare /= totalAfter
		}
		rec.Usage = append(rec.Usage, *u)
	}
	sort.Slice(rec.Usage, func(i, j int) bool {
		if rec.Usage[i].WeightedUses != rec.Usage[j].WeightedUses {
			return rec.Usage[i].WeightedUses > rec.Usage[j].WeightedUses
		}
		return rec.Usage[i].Structure < rec.Usage[j].Structure
	})
	return sealRecommendation(ev, rec, start), nil
}

// sealRecommendation stamps the session totals. What-if calls are counted by
// the session's own tracker — not as a server counter delta — so the
// number stays exact when several sessions share one what-if server.
func sealRecommendation(ev *evaluator, rec *Recommendation, start time.Time) *Recommendation {
	tr := ev.tr
	rec.WhatIfCalls = tr.calls.Load()
	rec.DerivedEvals = ev.drv.Derivations()
	rec.DeriveFallbacks = ev.drv.AtomsByShape()
	rec.Duration = time.Since(start)
	if rec.StopReason != "" && tr.journaling() {
		e := journal.Ev(journal.KindStop)
		e.Reason = rec.StopReason
		tr.record(e)
	}
	tr.setPhase(PhaseDone)
	return rec
}

// newStructures lists the structures in final that base lacks.
func newStructures(base, final *catalog.Configuration) []catalog.Structure {
	have := map[string]bool{}
	for _, s := range base.Structures() {
		have[s.Key()] = true
	}
	var out []catalog.Structure
	for _, s := range final.Structures() {
		if !have[s.Key()] {
			out = append(out, s)
		}
	}
	return out
}
