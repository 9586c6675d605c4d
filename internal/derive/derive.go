// Package derive implements the cost-derivation layer between the advisor's
// single-flight cost cache and the what-if backend, in the spirit of INUM
// and CoPhy (Dash et al.): instead of issuing one optimizer call per
// (event, relevant-structure-subset), it issues one real call per event and
// candidate pool — returning the statement's *plan skeleton* — and answers
// every configuration the search explores by replaying the optimizer's own
// selection arithmetic over that skeleton.
//
// Split an event's relevant structures into a *base* part (clustered
// indexes and table partitionings, which reshape the base tables) and an
// *additive* part (non-clustered indexes and materialized views, which only
// add plan alternatives). The canonical *top* of a configuration S is S plus
// every additive pool candidate relevant to the event: every configuration
// the current search phase can ask about with the same base part is a subset
// of it. Resolution has exactly one path:
//
//  1. compute the top of S;
//  2. look up the top's skeleton in the current (event, statistics epoch,
//     base part) scope;
//  3. if it is absent, fetch it with one accounted real alternatives call,
//     issued by the engine itself through the caller's Fetch and
//     single-flighted per (scope, top) — the `atom` of the fallback
//     accounting;
//  4. replay: optimizer.Alternatives.Select restricted to the structures S
//     holds. For a single-scope query the skeleton carries every plan
//     alternative costed end-to-end, each gated by the single additive
//     structure it needs; for a join it carries per-scope access and probe
//     alternatives plus edge selectivities and the finish chain
//     (optimizer.JoinSkeleton), composed through the optimizer's own join
//     cost function. Either way the replayed number is bit-identical to what
//     a real call on S would return — no interpolation, no model.
//
// So one atomic call per (event, pool, epoch, base part) answers every
// configuration the search explores, a fetch is always issued at the current
// statistics epoch (BumpEpoch simply starts a new scope), and the engine
// never re-enters the caller's cost cache. What does not resolve is reported
// as a fallback and costed by the caller's ordinary real call: DML events
// (maintenance cost depends on the whole index set), a failed fetch, and the
// defensive guard against a skeleton that offers no selectable alternative.
//
// The engine exists only where skeletons do: an evaluator builds one iff its
// backend implements the alternatives call. Over a skeleton-less backend the
// evaluator is the plain real-call evaluator — the oracle the equivalence
// tests and Verify mode compare against.
//
// Internally a structure is a dense ID from the engine's Interner, which the
// evaluator shares for its own cost-cache keys: Resolve takes the event's
// cache key and its additive pool subset (which the evaluator precomputes
// from its relevance bitsets) as ID sets, tops are ID sets, and the canonical
// key strings reappear only in the persisted Snapshot.
package derive

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// Mode selects how derived costs are treated.
type Mode string

// Modes. The zero value ("") means On everywhere a mode is accepted.
const (
	// On answers cost-cache misses by skeleton replay.
	On Mode = "on"
	// Verify derives like On but cross-checks every derived cost against a
	// real optimizer call; divergence beyond VerifyTolerance is an error.
	Verify Mode = "verify"
)

// ParseMode parses a wire/CLI/persisted mode string, case-insensitively
// ("" → On). "off" is rejected with a message naming its removal.
func ParseMode(s string) (Mode, error) {
	switch Mode(strings.ToLower(s)) {
	case "", On:
		return On, nil
	case Verify:
		return Verify, nil
	case "off":
		return "", fmt.Errorf("derive: mode %q was removed: skeleton replay is the only costing path (want on or verify)", s)
	}
	return "", fmt.Errorf("derive: unknown mode %q (want on or verify)", s)
}

// VerifyTolerance is the maximum relative divergence Verify mode accepts
// between a derived cost and the real optimizer's answer. Derivation is
// mathematically exact — the derived number replays the optimizer's own
// arithmetic, not a model estimate — so the tolerance only absorbs float
// formatting round-trips, not approximation error.
const VerifyTolerance = 1e-9

// Fallback reasons. Each non-DML reason splits by event shape into a
// single-scope key (the bare reason) and a join key (reason + "-join"), the
// currency of FallbacksByReason; the metric series carries them as separate
// reason/shape labels.
const (
	// ReasonDML marks INSERT/UPDATE/DELETE events: their update overhead
	// grows with every index present, so costs are not plan-set monotone
	// and every DML evaluation stays a real call.
	ReasonDML = "dml"
	// ReasonAtom marks the engine's own skeleton fetch: the one real call a
	// (scope, top) pair costs, after which every subset replays.
	ReasonAtom = "atom"
	// ReasonError marks a resolution abandoned because the skeleton fetch
	// failed (cancellation, degradation, backend error); the caller's own
	// real call reports the definitive error.
	ReasonError = "eval-error"
	// ReasonEscape marks a defensive impossibility guard: the backend
	// returned no skeleton, or one that offers no selectable alternative.
	// It indicates a backend skeleton bug, never normal operation.
	ReasonEscape = "used-escape"

	// joinSuffix distinguishes join-event fallbacks from single-scope ones
	// in the per-reason accounting.
	joinSuffix = "-join"
)

// reasonKey returns the accounting key of a fallback: the bare reason for
// single-scope events, reason + joinSuffix for joins (DML has no join shape).
func reasonKey(reason string, join bool) string {
	if join && reason != ReasonDML {
		return reason + joinSuffix
	}
	return reason
}

// Keyed pairs a structure with its canonical key, the currency the engine
// and the evaluator exchange (the evaluator already has both on hand, and
// the engine must not recompute keys on hot paths).
type Keyed struct {
	// Key is Structure.Key(), precomputed.
	Key string
	// Structure is the physical design structure itself.
	Structure catalog.Structure
}

// Result is a derived cost evaluation: the exact cost and used-structure
// set a real optimizer call on the configuration would have returned.
type Result struct {
	// Cost is the optimizer-estimated cost.
	Cost float64
	// Used holds the keys of the structures the plan uses.
	Used []string
}

// Fetch issues one accounted real alternatives call for a top configuration
// and returns the optimizer's answer with the plan skeleton. It must not
// call back into the engine.
type Fetch func(top *catalog.Configuration) (cost float64, used []string, alts *optimizer.Alternatives, err error)

// factKey addresses one skeleton: replay needs identical statements,
// identical statistics, and identical base-table shapes, so a fact is scoped
// to (event, statistics epoch) and keyed by its top's interned ID set — which
// also fixes the base part, since a top adds only additive structures.
type factKey struct {
	event int
	epoch int64
	top   string // idString of the top's ascending IDs
}

// fact is one single-flight skeleton slot. The resolver that created it
// fills the fetched answer and closes ready; concurrent resolvers of the same
// key wait on ready instead of fetching again. A failed fact is removed from
// the map before ready closes, so a later resolution fetches afresh.
type fact struct {
	ready chan struct{}
	top   []int32 // the top's IDs, ascending
	cost  float64
	used  []string
	alts  *optimizer.Alternatives
	err   error
}

// closed is the ready channel of facts that never were in flight (Restore).
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Engine is one tuning session's derivation state: the structure registry,
// the statistics epoch, and the per-event skeletons. All methods are safe
// for concurrent use and all are nil-safe, so an evaluator over a
// skeleton-less backend carries a nil *Engine at zero cost.
type Engine struct {
	mode Mode
	in   *Interner

	mu sync.Mutex
	// structs is the registry: every candidate-pool structure and every
	// structure of a resolved configuration, by ID, as first registered.
	structs map[int32]catalog.Structure
	epoch   int64
	facts   map[factKey]*fact

	atoms       atomic.Int64
	derivations atomic.Int64
	fallbacks   atomic.Int64
	// byReason holds one per-reason fallback counter, fixed at New over
	// the closed reason-key set so workers index it without locking.
	byReason map[string]*atomic.Int64

	// jnl, when set, receives one derive-fallback journal event per
	// bailout (nil = journaling off). Set once before tuning starts.
	jnl *journal.Journal

	mAtoms, mDerivations              *obs.Counter
	mFallback                         map[string]*obs.Counter
	mVerifyOK, mVerifyBad, mVerifyErr *obs.Counter
}

// reasons is the closed fallback-reason-key set, in reporting order: each
// non-DML reason once per shape (single-scope, join).
var reasons = []string{
	ReasonDML,
	ReasonAtom, ReasonAtom + joinSuffix,
	ReasonError, ReasonError + joinSuffix,
	ReasonEscape, ReasonEscape + joinSuffix,
}

// New returns an engine in the given mode ("" → On) with its own interner.
func New(mode Mode) *Engine {
	if mode == "" {
		mode = On
	}
	e := &Engine{
		mode:     mode,
		in:       NewInterner(),
		structs:  map[int32]catalog.Structure{},
		facts:    map[factKey]*fact{},
		byReason: map[string]*atomic.Int64{},
	}
	for _, r := range reasons {
		e.byReason[r] = &atomic.Int64{}
	}
	return e
}

// Interner returns the engine's structure interner, for the caller to key
// its own cost cache by the same IDs (nil on a nil engine).
func (e *Engine) Interner() *Interner {
	if e == nil {
		return nil
	}
	return e.in
}

// Mode reports the engine's mode ("" for a nil engine).
func (e *Engine) Mode() Mode {
	if e == nil {
		return ""
	}
	return e.mode
}

// AttachMetrics caches the dta_derive_* series so hot paths never take
// registry locks. Safe on a nil engine or nil registry.
func (e *Engine) AttachMetrics(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.mAtoms = reg.Counter("dta_derive_atoms_total",
		"Plan skeletons fetched, one per successful real alternatives call the derivation engine issued.")
	e.mDerivations = reg.Counter("dta_derive_derivations_total",
		"Cost evaluations answered by skeleton replay instead of an optimizer call.")
	const fbHelp = "Real what-if calls behind derivation (skeleton fetches and evaluations replay could not answer), by reason and event shape."
	e.mFallback = map[string]*obs.Counter{}
	for _, r := range reasons {
		base, shape := r, "single"
		if strings.HasSuffix(r, joinSuffix) {
			base, shape = strings.TrimSuffix(r, joinSuffix), "join"
		}
		e.mFallback[r] = reg.Counter("dta_derive_fallbacks_total", fbHelp, "reason", base, "shape", shape)
	}
	const vHelp = "Verify-mode cross-checks of derived costs against real optimizer calls."
	e.mVerifyOK = reg.Counter("dta_derive_verify_total", vHelp, "result", "match")
	e.mVerifyBad = reg.Counter("dta_derive_verify_total", vHelp, "result", "mismatch")
	e.mVerifyErr = reg.Counter("dta_derive_verify_total", vHelp, "result", "error")
}

// Register adds the structures of a candidate pool — those a search phase
// may add to tops — to the registry; a structure already registered keeps
// its first registration. Safe on nil.
func (e *Engine) Register(pool []Keyed) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range pool {
		e.register(e.in.ID(k.Key), k.Structure)
	}
}

// register adds a structure to the registry; e.mu must be held.
func (e *Engine) register(id int32, s catalog.Structure) {
	if _, ok := e.structs[id]; !ok {
		e.structs[id] = s
	}
}

// BumpEpoch starts a new skeleton scope after statistics creation: costs
// computed under different statistics states are not comparable, so
// skeletons of the previous epoch stop answering and the next resolution of
// each (event, top) fetches afresh. The caller's cost cache is untouched —
// first-touch semantics there are exactly what derivation must reproduce.
// Safe on nil.
func (e *Engine) BumpEpoch() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.epoch++
	e.mu.Unlock()
}

// Resolve derives the cost of the configuration whose structures relevant to
// the event are rel (interned IDs, ascending): its top is rel plus additive —
// the IDs of the current candidate pool's additive plan alternatives for the
// event, ascending, which the caller must derive from the pool alone so that
// tops, and hence the real calls issued, are independent of scheduling. It
// fetches the top's skeleton through fetch if the current scope does not hold
// it yet (one real call, single-flighted across concurrent resolvers and
// counted as an atom) and replays the skeleton restricted to rel. Every ID of
// rel must carry a structure in the interner and every ID of additive must be
// registered. join reports whether the event is a multi-scope SELECT
// (per-reason fallback accounting splits by shape). The boolean reports
// success; on false the caller issues its ordinary real call. Safe on nil
// (always false).
func (e *Engine) Resolve(event int, join bool, rel, additive []int32, fetch Fetch) (Result, bool) {
	if e == nil {
		return Result{}, false
	}
	top := union(rel, additive)
	e.mu.Lock()
	key := factKey{event: event, epoch: e.epoch, top: idString(top)}
	f, found := e.facts[key]
	var cfg *catalog.Configuration
	if !found {
		f = &fact{ready: make(chan struct{}), top: top}
		e.facts[key] = f
		for _, id := range rel {
			e.register(id, e.in.Structure(id))
		}
		cfg = e.topConfig(top)
	}
	e.mu.Unlock()

	if found {
		<-f.ready
	} else {
		e.fallback(event, ReasonAtom, join)
		f.cost, f.used, f.alts, f.err = fetch(cfg)
		if f.err != nil {
			e.mu.Lock()
			delete(e.facts, key)
			e.mu.Unlock()
		} else {
			e.atoms.Add(1)
			count(e.mAtoms)
		}
		close(f.ready)
	}
	if f.err != nil {
		e.fallback(event, ReasonError, join)
		return Result{}, false
	}
	if f.alts != nil {
		if cost, used, ok := f.alts.Select(func(k string) bool {
			id, ok := e.in.Lookup(k)
			if !ok {
				return false
			}
			_, in := slices.BinarySearch(rel, id)
			return in
		}); ok {
			e.derivations.Add(1)
			count(e.mDerivations)
			return Result{Cost: cost, Used: used}, true
		}
	}
	// A missing skeleton, or one with no selectable alternative, is
	// impossible for a well-formed backend (a base access always exists);
	// re-cost for real rather than guess.
	e.fallback(event, ReasonEscape, join)
	return Result{}, false
}

// topConfig builds the configuration of a top from the registry. Structures
// are applied in sorted key order so identical tops always produce identical
// configurations; e.mu must be held. A top's keys are distinct and its base
// part comes from one configuration — at most one clustered index and one
// partitioning per table — while the pool adds only additive structures, so
// Structure.ApplyTo's duplicate and conflict checks could never fire: each
// structure is added as ApplyTo would add it (a clone) without re-deriving
// the key of every index already present.
func (e *Engine) topConfig(top []int32) *catalog.Configuration {
	ids := slices.Clone(top)
	sort.Slice(ids, func(a, b int) bool { return e.in.Key(ids[a]) < e.in.Key(ids[b]) })
	cfg := catalog.NewConfiguration()
	for _, id := range ids {
		switch s := e.structs[id]; {
		case s.Index != nil:
			cfg.Indexes = append(cfg.Indexes, s.Index.Clone())
		case s.View != nil:
			cfg.Views = append(cfg.Views, s.View.Clone())
		default:
			cfg.SetTablePartitioning(s.PartTable, s.Part.Clone())
		}
	}
	return cfg
}

// FactRecord is one serialized skeleton fetch: the event it belongs to, the
// base part of its scope, the top's canonical joined key set, and the
// optimizer's answer (cost, used structures, plan skeleton). Facts serialize
// only for the current statistics epoch, so a restored engine never mixes
// epochs.
type FactRecord struct {
	// Event is the workload event index the fact belongs to.
	Event int `json:"event"`
	// Base is the joined base-part key of the fact's scope.
	Base string `json:"base,omitempty"`
	// Node is the canonical joined key set of the fact's configuration.
	Node string `json:"node"`
	// Cost is the recorded optimizer cost.
	Cost float64 `json:"cost"`
	// Used holds the used-structure keys of the winning plan.
	Used []string `json:"used,omitempty"`
	// Alts is the plan skeleton.
	Alts *optimizer.Alternatives `json:"alts,omitempty"`
}

// Snapshot is the engine's serializable state at one statistics epoch: the
// structure registry and every fact recorded at the current epoch, both
// sorted so identical states produce byte-identical JSON. It is the derive
// half of a core.CostedPool: a restored engine answers exactly the
// evaluations the original engine could answer at its final epoch.
type Snapshot struct {
	// Mode is the engine's derivation mode.
	Mode Mode `json:"mode"`
	// Structs is the structure registry, sorted by key.
	Structs []Keyed `json:"structs,omitempty"`
	// Facts holds the current-epoch facts, sorted by (event, base, node).
	Facts []FactRecord `json:"facts,omitempty"`
}

// Snapshot captures the engine's current-epoch state for persistence. Facts
// recorded under older statistics epochs are deliberately dropped: they can
// never answer a resolution at the final epoch, and omitting them keeps the
// snapshot's fingerprint a pure function of the reusable state. Safe on nil
// (returns nil).
func (e *Engine) Snapshot() *Snapshot {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Snapshot{Mode: e.mode}
	for id, st := range e.structs {
		s.Structs = append(s.Structs, Keyed{Key: e.in.Key(id), Structure: st})
	}
	sort.Slice(s.Structs, func(i, j int) bool { return s.Structs[i].Key < s.Structs[j].Key })
	for key, f := range e.facts {
		if key.epoch != e.epoch {
			continue
		}
		select {
		case <-f.ready:
			var base []int32
			for _, id := range f.top {
				if isBase(e.structs[id]) {
					base = append(base, id)
				}
			}
			s.Facts = append(s.Facts, FactRecord{
				Event: key.event, Base: e.in.Join(base), Node: e.in.Join(f.top),
				Cost: f.cost, Used: append([]string(nil), f.used...), Alts: f.alts,
			})
		default: // fetch in flight: not yet a fact worth persisting
		}
	}
	sort.Slice(s.Facts, func(i, j int) bool {
		a, b := s.Facts[i], s.Facts[j]
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Base != b.Base {
			return a.Base < b.Base
		}
		return a.Node < b.Node
	})
	return s
}

// Restore loads a snapshot into the engine at epoch zero, replacing any
// existing state. As long as no statistics are created afterwards (the
// search layer never creates statistics), every restored fact stays valid
// and resolutions behave exactly as they would have on the original engine
// at its final epoch. Safe on nil (either side).
func (e *Engine) Restore(s *Snapshot) {
	if e == nil || s == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch = 0
	e.structs = make(map[int32]catalog.Structure, len(s.Structs))
	for _, k := range s.Structs {
		e.structs[e.in.ID(k.Key)] = k.Structure
	}
	e.facts = make(map[factKey]*fact, len(s.Facts))
	for _, r := range s.Facts {
		f := &fact{ready: closed, top: e.in.Split(r.Node), cost: r.Cost, used: append([]string(nil), r.Used...), alts: r.Alts}
		e.facts[factKey{event: r.Event, top: idString(f.top)}] = f
	}
}

// VerifyOutcome feeds one Verify-mode cross-check result into the engine's
// accounting: match, mismatch, or backend error (err). Safe on nil.
func (e *Engine) VerifyOutcome(match bool, err error) {
	if e == nil {
		return
	}
	switch {
	case err != nil:
		count(e.mVerifyErr)
	case match:
		count(e.mVerifyOK)
	default:
		count(e.mVerifyBad)
	}
}

// Atoms reports how many plan skeletons were fetched. Safe on nil.
func (e *Engine) Atoms() int64 {
	if e == nil {
		return 0
	}
	return e.atoms.Load()
}

// Derivations reports how many evaluations were answered by derivation.
// Safe on nil.
func (e *Engine) Derivations() int64 {
	if e == nil {
		return 0
	}
	return e.derivations.Load()
}

// Fallbacks reports how many real calls stood behind derivation: skeleton
// fetches plus evaluations replay could not answer. Safe on nil.
func (e *Engine) Fallbacks() int64 {
	if e == nil {
		return 0
	}
	return e.fallbacks.Load()
}

// FallbacksByReason snapshots the per-reason fallback breakdown (only
// reasons with non-zero counts; nil when none, and on a nil engine).
func (e *Engine) FallbacksByReason() map[string]int64 {
	if e == nil {
		return nil
	}
	var out map[string]int64
	for _, r := range reasons {
		if n := e.byReason[r].Load(); n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[r] = n
		}
	}
	return out
}

// Stats snapshots the derivation counters for progress reporting: the
// derived-eval count and the per-reason fallback breakdown. Safe on nil.
func (e *Engine) Stats() (int64, map[string]int64) {
	return e.Derivations(), e.FallbacksByReason()
}

// SetJournal attaches the session's decision journal, so every fallback
// is recorded as a derive-fallback event with the event index and
// reason. Call before tuning starts; safe on nil (either side).
func (e *Engine) SetJournal(j *journal.Journal) {
	if e == nil {
		return
	}
	e.jnl = j
}

// FallbackDML counts a DML evaluation of the given workload event that
// bypassed derivation. Safe on nil.
func (e *Engine) FallbackDML(event int) { e.fallback(event, ReasonDML, false) }

// fallback counts one fallback of the given workload event under the given
// reason and shape, and journals it when a journal is attached.
func (e *Engine) fallback(event int, reason string, join bool) {
	if e == nil {
		return
	}
	key := reasonKey(reason, join)
	e.fallbacks.Add(1)
	if c := e.byReason[key]; c != nil {
		c.Add(1)
	}
	if e.mFallback != nil {
		count(e.mFallback[key])
	}
	if e.jnl != nil {
		ev := journal.Ev(journal.KindDeriveFallback)
		ev.Query = event
		ev.Reason = key
		e.jnl.Append(ev)
	}
}

// isBase reports whether the structure belongs to the base (shaping) part
// of a configuration: clustered indexes and table partitionings alter the
// base tables themselves and are never pool-added to a top.
func isBase(s catalog.Structure) bool {
	if s.Index != nil {
		return s.Index.Clustered
	}
	return s.Index == nil && s.View == nil
}

// count increments a cached counter (nil without metrics).
func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
