package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/canonjson"
	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// QueryGain is one workload event's candidate-selection outcome, kept in
// the costed pool so the search layer can recompute per-structure benefits
// under any workload-slice reweighting: the costs are unweighted (weights
// are a search-layer input), so gain × effective-weight reproduces exactly
// what a fresh run under the same weights would compute.
type QueryGain struct {
	// Query is the workload event index.
	Query int `json:"query"`
	// BaseCost is the event's unweighted cost under the base configuration.
	BaseCost float64 `json:"baseCost"`
	// BestCost is the event's unweighted cost under its best candidate
	// subset.
	BestCost float64 `json:"bestCost"`
	// Structures lists the structure keys the event's Greedy(m,k) chose.
	Structures []string `json:"structures,omitempty"`
}

// StatBatch is one statistics-creation call the costing layer issued, in
// issue order. A revision replays the batches before any evaluation so a
// fresh backend reaches the exact statistics state the pool's cached costs
// were computed under (statistics creation is idempotent and monotone, so
// replay on the original backend is a no-op).
type StatBatch struct {
	// Requests lists the statistics the batch requested.
	Requests []stats.Request `json:"requests"`
}

// PoolKnobs pins the pipeline parameters a pool was costed under. They are
// the non-revisable complement of Constraints: changing any of them changes
// which candidates exist or how the search explores them, so a revision
// inherits them from the pool verbatim rather than accepting overrides.
type PoolKnobs struct {
	// Features is the physical-design feature mask the pool was costed for.
	Features FeatureMask `json:"features,omitempty"`
	// GreedyM and GreedyK parameterize the enumeration Greedy(m,k).
	GreedyM int `json:"greedyM,omitempty"`
	// GreedyK bounds the enumeration configuration size.
	GreedyK int `json:"greedyK,omitempty"`
	// NoMerging disables the merging step.
	NoMerging bool `json:"noMerging,omitempty"`
	// EagerAlignment materializes aligned variants up front (§4 ablation).
	EagerAlignment bool `json:"eagerAlignment,omitempty"`
	// AllowDrops lets the search recommend dropping base structures.
	AllowDrops bool `json:"allowDrops,omitempty"`
	// DisableStatReduction disables §5.2 statistics reduction; statistics
	// replay must use the same setting the pool was costed under.
	DisableStatReduction bool `json:"disableStatReduction,omitempty"`
	// Derive is the cost-derivation mode the pool's facts were recorded
	// under.
	Derive derive.Mode `json:"derive,omitempty"`
}

// knobs captures the pool-pinned pipeline parameters from a full-run
// Options (after withDefaults).
func (o Options) knobs() PoolKnobs {
	return PoolKnobs{
		Features:             o.features(),
		GreedyM:              o.GreedyM,
		GreedyK:              o.GreedyK,
		NoMerging:            o.NoMerging,
		EagerAlignment:       o.EagerAlignment,
		AllowDrops:           o.AllowDrops,
		DisableStatReduction: o.DisableStatReduction,
		Derive:               o.Derive,
	}
}

// apply grafts the pool-pinned knobs back onto a revision's Options.
func (k PoolKnobs) apply(o Options) Options {
	o.Features = k.Features
	o.GreedyM = k.GreedyM
	o.GreedyK = k.GreedyK
	o.NoMerging = k.NoMerging
	o.EagerAlignment = k.EagerAlignment
	o.AllowDrops = k.AllowDrops
	o.DisableStatReduction = k.DisableStatReduction
	o.Derive = k.Derive
	return o
}

// CostedPool is the serializable boundary between the pipeline's two
// layers: everything the costing layer produced — the compressed workload,
// the base configuration, the candidate structures with their per-query
// gains, the statistics-creation log and the derivation engine's plan
// facts — and nothing the search layer decides. It is immutable once sealed
// and content-addressed by Fingerprint; Revise consumes one together with a
// Constraints value and re-runs only the search layer, never issuing a
// what-if call the pool's facts can answer (beyond configurations the new
// constraints genuinely make reachable for the first time).
type CostedPool struct {
	// Statements is the tuned (post-compression) workload, with weights.
	Statements []workload.Statement `json:"statements"`
	// Base is the base configuration candidate selection ran against
	// (Options.BaseConfig; drop analysis re-runs per revision).
	Base *catalog.Configuration `json:"base,omitempty"`
	// Candidates is the deduplicated candidate pool, in selection order.
	Candidates []catalog.Structure `json:"candidates,omitempty"`
	// Gains holds each event's candidate-selection outcome.
	Gains []QueryGain `json:"gains,omitempty"`
	// StatBatches logs the statistics-creation calls, in issue order.
	StatBatches []StatBatch `json:"statBatches,omitempty"`
	// CostingSection holds the skeleton facts — the section checkpoints
	// persist — and the costing format that versions the pool.
	CostingSection
	// Knobs pins the pipeline parameters the pool was costed under.
	Knobs PoolKnobs `json:"knobs"`
	// StatsCreated is how many statistics the costing layer created.
	StatsCreated int `json:"statsCreated,omitempty"`
	// TemplatesTuned is the tuned workload's distinct template count.
	TemplatesTuned int `json:"templatesTuned,omitempty"`
	// Compressed records whether the workload was compressed (§5.1).
	Compressed bool `json:"compressed,omitempty"`
	// IngestedEvents and IngestedBytes carry streaming-ingest volume
	// (Options.Ingest) into revised sessions' recommendations.
	IngestedEvents int64 `json:"ingestedEvents,omitempty"`
	// IngestedBytes is the raw trace volume consumed during ingest.
	IngestedBytes int64 `json:"ingestedBytes,omitempty"`
	// Fingerprint is the sha256 content address of the pool (computed over
	// its canonical JSON with this field empty).
	Fingerprint string `json:"fingerprint,omitempty"`

	// nonCanonical records that the pool was decoded from JSON other than
	// its own canonical form (see UnmarshalJSON).
	nonCanonical bool
}

// ComputeFingerprint returns the pool's content address: the sha256 of its
// canonical JSON with the Fingerprint field blanked. Identical pools —
// byte-identical costing-layer output — hash identically; Seal stamps it
// and Check verifies it on load. The JSON is streamed into the hash, never
// held whole.
func (p *CostedPool) ComputeFingerprint() string {
	h := sha256.New()
	if p.writeCanonical(h, "") != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// WriteCanonical writes the pool's canonical JSON to w: exactly the bytes
// json.Marshal produces for it, or its error. It is the pool's one writer —
// the fingerprint hashes it, a pool file holds it, and UnmarshalJSON checks
// a file against it. The large section, the skeleton facts, is written by
// hand, each skeleton as its memoized optimizer.Alternatives.CanonicalJSON;
// every other field is json.Marshal's.
func (p *CostedPool) WriteCanonical(w io.Writer) error {
	return p.writeCanonical(w, p.Fingerprint)
}

// writeCanonical is WriteCanonical with the Fingerprint field's value given
// ("" omits it, as json.Marshal omits an empty one).
func (p *CostedPool) writeCanonical(out io.Writer, fingerprint string) error {
	w := canonjson.NewWriter(out)
	w.Raw(`{"statements":`)
	w.Marshal(p.Statements)
	if p.Base != nil {
		w.Raw(`,"base":`)
		w.Marshal(p.Base)
	}
	if len(p.Candidates) > 0 {
		w.Raw(`,"candidates":`)
		w.Marshal(p.Candidates)
	}
	if len(p.Gains) > 0 {
		w.Raw(`,"gains":`)
		w.Marshal(p.Gains)
	}
	if len(p.StatBatches) > 0 {
		w.Raw(`,"statBatches":`)
		w.Marshal(p.StatBatches)
	}
	w.Raw(`,"costingFormat":`)
	w.Int(int64(p.Format))
	if p.Skeletons != nil {
		w.Raw(`,"skeletons":`)
		p.Skeletons.WriteCanonical(w)
	}
	if p.OldCache != nil { // only a decoded older pool, which Check refuses
		w.Raw(`,"costCache":{"format":`)
		w.Int(int64(p.OldCache.Format))
		w.Raw("}")
	}
	w.Raw(`,"knobs":`)
	w.Marshal(p.Knobs)
	intField(w, `,"statsCreated":`, int64(p.StatsCreated))
	intField(w, `,"templatesTuned":`, int64(p.TemplatesTuned))
	if p.Compressed {
		w.Raw(`,"compressed":true`)
	}
	intField(w, `,"ingestedEvents":`, p.IngestedEvents)
	intField(w, `,"ingestedBytes":`, p.IngestedBytes)
	if fingerprint != "" {
		w.Raw(`,"fingerprint":`)
		w.String(fingerprint)
	}
	w.Raw("}")
	return w.Flush()
}

// intField writes an omitempty integer field: name, then n, unless n is 0.
func intField(w *canonjson.Writer, name string, n int64) {
	if n != 0 {
		w.Raw(name)
		w.Int(n)
	}
}

// errNotCanonical stops UnmarshalJSON's canonical check at the first
// differing byte.
var errNotCanonical = errors.New("core: not the canonical JSON")

// matchWriter compares what is written to it against want, failing with
// errNotCanonical at the first difference.
type matchWriter struct{ want []byte }

func (m *matchWriter) Write(b []byte) (int, error) {
	if !bytes.HasPrefix(m.want, b) {
		return 0, errNotCanonical
	}
	m.want = m.want[len(b):]
	return len(b), nil
}

// UnmarshalJSON decodes a pool and records whether the bytes were the JSON
// the decoded pool marshals to (insignificant whitespace aside). The decoder
// forgives case-folded field names, unknown fields and invalid UTF-8, so a
// damaged file can decode to the very value its fingerprint was computed
// over; Check refuses it instead.
func (p *CostedPool) UnmarshalJSON(data []byte) error {
	type plain CostedPool
	if err := json.Unmarshal(data, (*plain)(p)); err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		return err
	}
	m := &matchWriter{want: compact.Bytes()}
	switch err := p.WriteCanonical(m); {
	case err == errNotCanonical:
		p.nonCanonical = true
	case err != nil:
		return err
	default:
		p.nonCanonical = len(m.want) > 0
	}
	return nil
}

// Check verifies the pool before it is trusted: the costing format (a pool
// written by an older binary is refused), the shape of the skeleton
// section, that the pool was decoded from its canonical JSON, and the
// content address.
func (p *CostedPool) Check() error {
	if err := p.check("costed pool", len(p.Statements)); err != nil {
		return err
	}
	if p.nonCanonical {
		return fmt.Errorf("core: costed pool JSON is not in canonical form (damaged or hand-edited)")
	}
	if p.Fingerprint == "" {
		return fmt.Errorf("core: costed pool has no fingerprint")
	}
	if got := p.ComputeFingerprint(); got != p.Fingerprint {
		return fmt.Errorf("core: costed pool fingerprint mismatch: stamped %s, computed %s", p.Fingerprint, got)
	}
	return nil
}

// Resolve returns the structures the keys name, in key order, looked up
// among the pool's candidates and base structures and the extra structures
// (a session's pins, a daemon's accepted set or proposal); a nil pool
// resolves against extra alone. A key that names none of them fails.
func (p *CostedPool) Resolve(keys []string, extra ...[]catalog.Structure) ([]catalog.Structure, error) {
	if p != nil {
		extra = append([][]catalog.Structure{p.Candidates, p.Base.Structures()}, extra...)
	}
	byKey := map[string]catalog.Structure{}
	for _, sts := range extra {
		for _, st := range sts {
			byKey[st.Key()] = st
		}
	}
	out := make([]catalog.Structure, len(keys))
	for i, k := range keys {
		st, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("core: structure key %q matches no pool candidate, base or named structure", k)
		}
		out[i] = st
	}
	return out, nil
}

// seal freezes the costing layer's state into a serializable, fingerprinted
// pool. Called after a successful, uninterrupted run, so the skeleton
// snapshot also carries the search phase's facts — a superset of what the
// search started from, which can only turn a revision's real calls into
// replays, never change a value.
func (st *costedState) seal(opts Options) *CostedPool {
	p := &CostedPool{
		Base:           st.base.Clone(),
		Candidates:     structures(st.cands),
		Gains:          st.gains,
		StatBatches:    st.statBatches,
		CostingSection: CostingSection{Format: CostingFormat, Skeletons: st.ev.drv.Snapshot()},
		Knobs:          opts.knobs(),
		StatsCreated:   st.statsCreated,
		TemplatesTuned: st.templates,
		Compressed:     st.compressed,
	}
	for _, e := range st.tuned.Events {
		p.Statements = append(p.Statements, workload.Statement{SQL: e.SQL, Weight: e.Weight})
	}
	p.IngestedEvents = st.ingestEvents
	p.IngestedBytes = st.ingestBytes
	p.Fingerprint = p.ComputeFingerprint()
	return p
}

// Revise re-runs only the search layer against a previously sealed costed
// pool under new constraints (CoPhy-style interactive tuning): the skeleton
// facts and candidate gains are reused verbatim — every evaluation a fact
// covers is replayed from it — so a
// changed storage bound, alignment toggle, pinned/vetoed structure set, or
// workload-slice reweighting yields a fresh recommendation in search time
// — typically with zero new what-if optimizer calls. The result is
// byte-identical to a fresh full TuneContext run under the same
// constraints (and a revision to the pool's own constraints reproduces the
// original recommendation exactly); only the call/derive accounting and
// Duration differ, reflecting the work actually done.
//
// t must expose the same catalog (and data) the pool was costed against.
// Pipeline knobs come from pool.Knobs; opts contributes only session-level
// fields (Parallelism, Progress, Metrics, TimeLimit, Retry, Faults,
// SkipReports, PoolSink for chained revisions).
func Revise(ctx context.Context, t Tuner, pool *CostedPool, cons Constraints, opts Options) (*Recommendation, error) {
	if pool == nil {
		return nil, fmt.Errorf("core: nil costed pool")
	}
	opts = pool.Knobs.apply(opts).withDefaults()
	mode, err := derive.ParseMode(string(opts.Derive))
	if err != nil {
		return nil, fmt.Errorf("core: costed pool: %w", err)
	}
	if err := pool.check("costed pool", len(pool.Statements)); err != nil {
		return nil, err
	}
	opts.Derive = mode
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "pipeline", "revise")
	defer span.End()
	tr := newTracker(ctx, opts, start)
	tr.revised = true

	cons = cons.normalize()
	if err := cons.validate(t.Catalog()); err != nil {
		return nil, err
	}
	tr.setPhase(PhaseRevise)
	if tr.journaling() {
		e := journal.Ev(journal.KindRevise)
		e.Reason = pool.Fingerprint
		tr.record(e)
	}

	w, err := workload.FromStatements(pool.Statements)
	if err != nil {
		return nil, fmt.Errorf("core: costed pool workload invalid: %w", err)
	}
	base := pool.Base
	if base == nil {
		base = catalog.NewConfiguration()
	} else {
		base = base.Clone()
		if base.TableParts == nil {
			base.TableParts = map[string]*catalog.PartitionScheme{}
		}
	}
	if err := base.Validate(t.Catalog()); err != nil {
		return nil, fmt.Errorf("core: base configuration invalid: %w", err)
	}

	// Statistics replay: re-issue the costing layer's creation batches in
	// order so a fresh backend reaches the statistics state the cached
	// atoms were computed under. On the original backend every batch is a
	// no-op (creation is idempotent), so StatsCreated counts only the work
	// this revision actually did.
	statsCreated := 0
	for _, b := range pool.StatBatches {
		created, err := ensureStatistics(t, tr, b.Requests, !pool.Knobs.DisableStatReduction)
		if err != nil {
			if stopping(err) {
				return nil, fmt.Errorf("core: session cancelled during statistics replay: %w", ctx.Err())
			}
			return nil, err
		}
		statsCreated += created
	}

	st := pool.warmState(t, w, base, opts.Derive, tr)
	ev := st.ev
	tr.eventsTotal = w.Len()
	tr.eventsTuned = w.Len() - ev.skippedEvents()
	span.SetArg("events", w.Len()).SetArg("pool", pool.Fingerprint)

	rec := &Recommendation{
		EventsTuned:    w.Len() - ev.skippedEvents(),
		SkippedEvents:  ev.skippedEvents(),
		TemplatesTuned: pool.TemplatesTuned,
		StatsCreated:   statsCreated,
		Compressed:     pool.Compressed,
		IngestedEvents: pool.IngestedEvents,
		IngestedBytes:  pool.IngestedBytes,
	}
	rec, err = runSearch(t, st, rec, cons, opts, start)
	if err != nil {
		return nil, err
	}
	if opts.PoolSink != nil && rec.StopReason == "" {
		opts.PoolSink(st.reseal(pool, opts))
	}
	return rec, nil
}

// reseal is a finished revision's pool. A revision that fetched no skeleton
// holds exactly its input pool's facts under the same knobs, so sealing it
// would reproduce the input byte for byte: the input pool itself is
// returned, unsnapshotted and unhashed (a sealed pool is immutable, so
// sharing it is safe). A revision that fetched something is sealed.
func (st *costedState) reseal(pool *CostedPool, opts Options) *CostedPool {
	if st.ev.drv.Atoms() == 0 && opts.knobs() == pool.Knobs {
		return pool
	}
	return st.seal(opts)
}

// warmState is a revision's warm start: the pool's costing-layer state over
// its workload w and base configuration, with an evaluator whose engine holds
// the pool's facts, bound to the session tracker tr. A search never creates
// statistics, so the facts are restored under the state they were fetched
// in.
func (pool *CostedPool) warmState(t Tuner, w *workload.Workload, base *catalog.Configuration, mode derive.Mode, tr *tracker) *costedState {
	ev := newEvaluator(t, w, mode, tr)
	ev.drv.Restore(pool.Skeletons)
	return &costedState{
		ev: ev, tuned: w, base: base,
		cands: keyed(pool.Candidates), gains: pool.Gains, statBatches: pool.StatBatches,
		statsCreated: pool.StatsCreated, templates: pool.TemplatesTuned, compressed: pool.Compressed,
		ingestEvents: pool.IngestedEvents, ingestBytes: pool.IngestedBytes,
	}
}
