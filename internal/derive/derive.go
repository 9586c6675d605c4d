// Package derive implements the cost-derivation layer between the advisor's
// evaluator and the what-if backend, in the spirit of INUM
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
//  2. look up the top's skeleton among the event's facts of the current
//     statistics epoch — or the first settled fact of the event that covers
//     S (its base part is S's, its top holds S): a fact that was ready at
//     the last phase barrier (Settle), or one a revision or a resumed
//     session restored. A ready fact of the running phase answers only its
//     own top, so which requests fetch never depends on which worker's
//     fetch finished first;
//  3. if both are absent, fetch it with one accounted real alternatives call,
//     issued by the engine itself through the caller's Fetch and
//     single-flighted per (event, top) — an atom, counted by event shape;
//  4. replay: optimizer.Alternatives.Replay restricted to the structures S
//     holds. For a single-scope query the skeleton carries every plan
//     alternative costed end-to-end, each gated by the single additive
//     structure it needs; for a join it carries per-scope access and probe
//     alternatives plus edge selectivities and the finish chain
//     (optimizer.JoinSkeleton), composed through the optimizer's own join
//     cost function; for DML it carries the maintenance sum. Either way
//     the replayed number is bit-identical to what a real call on S would
//     return — no interpolation, no model.
//
// So one atomic call per (event, pool, epoch, base part) answers every
// configuration the search explores, a fetch is always issued at the current
// statistics epoch (BumpEpoch simply starts a new scope), and the engine
// never calls back into the caller. The fact store is the evaluator's one
// single-flight layer: every evaluation, join or flat, is answered from its
// facts with no memo of its own, and a later phase reuses an earlier
// phase's facts through the settled ones, as a cost cache would reuse its
// entries. The store is one list of facts per event: an exact top is found
// by scanning it, and the phase barrier sorts it by top and marks its facts
// settled. Resolve is steps 1–4 in one call; Find is steps 1–3, and hands
// the fact back as a Slot, which answers without the engine — no top, lock,
// list scan or channel — every later request Find would answer from the
// same fact without a fetch, until the next barrier or epoch. The caller
// counts its derived evaluations (Derived), a batch at a time. A stopped
// session reads facts alone (Lookup): a ready one of the current epoch,
// else one of the previous epoch, never a fetch.
// INSERT, UPDATE and DELETE events take the same path: their skeleton
// (optimizer.Maintenance) is the fixed write cost, the access alternatives
// locating the affected rows, and one maintenance term per index or view
// over the target table, each gated by its structure and summed in
// ascending key order exactly as the optimizer sums them. The engine is a
// fact store plus replay, and nothing else costs an event: a failed fetch
// is the resolution's error, returned to the resolver that issued it and to
// every resolver waiting on the same fact, and a skeleton that offers no
// selectable alternative is a backend bug, reported as an error naming the
// event.
//
// The engine exists only where skeletons do: an evaluator builds one iff its
// backend implements the alternatives call. Over a skeleton-less backend the
// evaluator is the plain real-call evaluator — the oracle the equivalence
// tests and Verify mode compare against.
//
// Internally a structure is a dense ID from the engine's Interner, which the
// evaluator shares for its own per-event keys: Resolve takes the event's
// relevant structures and its additive pool subset (which the evaluator
// precomputes from its relevance bitsets) as ID sets, and tops are ID sets. A skeleton
// names the structures its alternatives need in its gate table
// (optimizer.Alternatives.Gates); the table is resolved to positions in the
// top once, when the fact becomes ready (fetched or restored), into a slice
// in the table's order, so a replay marks the top positions the
// configuration holds with one merge and fills each gate's availability
// from the marks into a stack buffer — no string, no map, no interner lock —
// and the skeleton replays over it by position. The skeleton's
// replay form is compiled at the same moment, so facts shared across
// workers are read-only once published. The engine keeps
// no structures of its own: the interner records each one, a top's
// configuration is built from it, and key strings appear only inside
// skeletons and once each in the persisted Snapshot's Structs table — the
// structures its facts name, which they index by position.
package derive

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/canonjson"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// Mode selects how derived costs are treated.
type Mode string

// Modes. The zero value ("") means On everywhere a mode is accepted.
const (
	// On answers every evaluation by skeleton replay.
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

// Keyed pairs a structure with its canonical key: an entry of a Snapshot's
// Structs table, and the identity the evaluator's per-structure analysis
// carries (keys are never recomputed on hot paths).
type Keyed struct {
	// Key is Structure.Key(), precomputed.
	Key string
	// Structure is the physical design structure itself.
	Structure catalog.Structure
}

// Fetch issues one accounted real alternatives call for a top configuration
// and returns the statement's plan skeleton under it. It must not call back
// into the engine.
type Fetch func(top *catalog.Configuration) (*optimizer.Alternatives, error)

// fact is one single-flight skeleton record, addressed by its event and its
// top's interned ID set within the current statistics epoch: replay needs
// identical statements, identical statistics and identical base-table
// shapes, and a top adds only additive structures, so the top fixes the base
// part. The resolver that created it fills the fetched skeleton, compiles
// its gates, sets done and closes ready; concurrent resolvers of the same
// top wait on ready instead of fetching again. A failed fact is removed from
// the store before ready closes, so a later resolution fetches afresh.
type fact struct {
	ready chan struct{}
	// done is set just before ready closes: a resolver that finds it set
	// reads err and the skeleton without touching the channel.
	done atomic.Bool
	top  []int32 // the top's IDs, ascending
	base []int32 // the top's base-part IDs, ascending
	alts *optimizer.Alternatives
	// gates holds, for each entry of alts' gate table in its order, the
	// position in top of the structure it names, or -1 for a gate outside
	// the top: no subset of the top can satisfy it. Immutable once ready
	// closes.
	gates []int32
	// basePos holds the positions in top of the base part; own, for a
	// fetched fact, the positions of the structures the fetching request
	// held outside the additive subset it was fetched with — what a request
	// must hold for its own top to be this one (see Slot). Both are
	// immutable once ready closes.
	basePos, own []int32
	err          error
	// settled marks a fact that was ready at the last phase barrier, or was
	// restored: only a settled fact answers a request for another top (see
	// covering). Read and written under the engine's lock.
	settled bool
}

// compile resolves the fact's skeleton gate table (Alternatives.Gates: the
// structures its single-scope components, join alternatives, probes and
// views, or DML access paths and maintenance terms are gated by) to
// positions in the top, in the table's order, and collects the top's base
// part, under one interner read lock; the skeleton's replay form is compiled
// before the lock is taken. Called before the fact is published.
func (e *Engine) compile(f *fact) {
	if f.alts == nil {
		return
	}
	gates := f.alts.Gates()
	f.gates = make([]int32, len(gates))
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	for p, id := range f.top {
		if isBase(e.in.structs[id]) {
			f.base = append(f.base, id)
			f.basePos = append(f.basePos, int32(p))
		}
	}
	for i, key := range gates {
		f.gates[i] = -1
		if id, ok := e.in.ids[key]; ok {
			if p, in := slices.BinarySearch(f.top, id); in {
				f.gates[i] = int32(p)
			}
		}
	}
}

// Stack buffer sizes: Resolve builds a top, and a replay its marks over the
// top and its gates' availability, in a fixed array on the stack; a larger
// one spills to the heap.
const (
	maxStackTop   = 128
	maxStackGates = 64
)

// replay replays the fact's skeleton for rel (ascending IDs, a subset of
// the fact's top), storing the plan's used structures in *used when used is
// non-nil: one merge of rel into the top marks the top positions rel holds.
func (f *fact) replay(rel []int32, used *[]string) (float64, bool) {
	var buf [maxStackTop]bool
	held := buf[:]
	if len(f.top) > len(held) {
		held = make([]bool, len(f.top))
	}
	p := 0
	for _, id := range rel {
		for p < len(f.top) && f.top[p] < id {
			p++
		}
		if p < len(f.top) && f.top[p] == id {
			held[p] = true
		}
	}
	return f.replayHeld(held, used)
}

// replayHeld replays the fact's skeleton for the sub-configuration of its
// top whose positions held marks: each gate is available when its position
// is marked.
func (f *fact) replayHeld(held []bool, used *[]string) (float64, bool) {
	var buf [maxStackGates]bool
	avail := buf[:0]
	for _, pos := range f.gates {
		avail = append(avail, pos >= 0 && held[pos])
	}
	return f.alts.Replay(avail, used)
}

// covers reports whether the fact answers rel exactly: its top holds every
// structure of rel, and rel holds its whole base part — the top of rel's
// own scope is rel plus additive structures only.
func (f *fact) covers(rel []int32) bool {
	return subset(rel, f.top) && subset(f.base, rel)
}

// subset reports whether every ID of a is in b, which is ascending.
func subset(a, b []int32) bool {
	for _, id := range a {
		if _, ok := slices.BinarySearch(b, id); !ok {
			return false
		}
	}
	return true
}

// closed is the ready channel of facts that never were in flight (Restore).
var closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// Engine is one tuning session's derivation state: the statistics epoch and
// the per-event skeletons, over the structures of its interner. All methods
// but Resolve are nil-safe, so an evaluator over a skeleton-less backend
// carries a nil *Engine at zero cost; all are safe for concurrent use.
type Engine struct {
	mode Mode
	in   *Interner

	mu sync.Mutex
	// facts holds the current statistics epoch's facts, in flight or
	// ready, one list per event. The last phase barrier (Settle, or a
	// Restore) sorted each list by top and marked every fact in it settled;
	// facts fetched since follow, unsettled.
	facts map[int][]*fact
	// prev holds the previous epoch's facts per event, for Lookup alone.
	prev map[int][]*fact

	// atoms counts the skeletons fetched, [0] for single-scope events and
	// [1] for joins.
	atoms       [2]atomic.Int64
	derivations atomic.Int64

	mAtoms, mDerivations              *obs.Counter
	mVerifyOK, mVerifyBad, mVerifyErr *obs.Counter
	mVerifyCover                      *obs.Counter
}

// New returns an engine in the given mode ("" → On) with its own interner.
func New(mode Mode) *Engine {
	if mode == "" {
		mode = On
	}
	return &Engine{mode: mode, in: NewInterner(), facts: map[int][]*fact{}}
}

// Interner returns the engine's structure interner, for the caller to key
// its evaluations by the same IDs (nil on a nil engine).
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
	const vHelp = "Verify-mode cross-checks of derived costs against real optimizer calls."
	e.mVerifyOK = reg.Counter("dta_derive_verify_total", vHelp, "result", "match")
	e.mVerifyBad = reg.Counter("dta_derive_verify_total", vHelp, "result", "mismatch")
	e.mVerifyErr = reg.Counter("dta_derive_verify_total", vHelp, "result", "error")
	e.mVerifyCover = reg.Counter("dta_derive_verify_total", vHelp, "result", "cover")
}

// BumpEpoch starts a new skeleton scope after statistics creation: costs
// computed under different statistics states are not comparable, so the
// previous epoch's skeletons, restored ones included, no longer answer
// Resolve or Used, and the next resolution of each (event, top) fetches
// afresh. The caller forgets every cost of the old epoch it remembers at
// the same point, so every cost it reads afterwards was replayed from a fact
// of the new epoch. The previous epoch's facts stay for Lookup alone: a
// session that stops before re-costing an evaluation answers it from them.
// Safe on nil.
func (e *Engine) BumpEpoch() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.prev = e.facts
	e.facts = map[int][]*fact{}
	e.mu.Unlock()
}

// Settle is the phase barrier: every fact of the current epoch that is ready
// now — fetched by an earlier phase, or restored — may from here on answer
// any request it covers (see Resolve). The caller calls it between parallel
// sections, where no fetch is in flight, at a point fixed by the pipeline,
// so which facts are settled never depends on scheduling. Safe on nil.
func (e *Engine) Settle() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.settle()
	e.mu.Unlock()
}

// settle marks every ready fact of the current epoch settled and replaces
// each event's list with a copy sorted by top, so the choice among covering
// facts is deterministic; e.mu must be held. The list is replaced, not
// sorted in place, because Used, Lookup and CheckCovering walk it outside
// the lock.
func (e *Engine) settle() {
	for event, list := range e.facts {
		for _, f := range list {
			f.settled = ready(f)
		}
		list = slices.Clone(list)
		slices.SortFunc(list, func(a, b *fact) int { return slices.Compare(a.top, b.top) })
		e.facts[event] = list
	}
}

// ready reports whether a fact's fetch has succeeded: it is done (its ready
// channel closed) and it holds no error.
func ready(f *fact) bool {
	if f.done.Load() {
		return f.err == nil
	}
	select {
	case <-f.ready:
		return f.err == nil
	default: // in flight
		return false
	}
}

// held returns the event's fact for top, or nil; e.mu must be held.
func (e *Engine) held(event int, top []int32) *fact {
	for _, f := range e.facts[event] {
		if slices.Equal(f.top, top) {
			return f
		}
	}
	return nil
}

// release removes a failed fact of the event; e.mu must be held. The
// event's list is replaced, not edited, because Used walks it outside the
// lock.
func (e *Engine) release(event int, f *fact) {
	e.facts[event] = slices.DeleteFunc(slices.Clone(e.facts[event]), func(g *fact) bool { return g == f })
}

// covering returns the first settled fact of the event that covers rel — its
// base part is rel's and its top holds rel — or nil. Settled facts were all
// ready at the last phase barrier, or restored before the first resolution
// of their epoch, and the barrier sorted them by top, so which one answers a
// request depends on the request and the phase alone, never on scheduling.
// e.mu must be held.
func (e *Engine) covering(event int, rel []int32) *fact {
	for _, f := range e.facts[event] {
		if f.settled && f.covers(rel) {
			return f
		}
	}
	return nil
}

// Resolve derives the cost of the configuration whose structures relevant to
// the event are rel (interned IDs, ascending): Find's fact for it, replayed
// restricted to rel. It is the engine's whole single-flight path in one call;
// a caller that keeps what Find hands back answers later requests from the
// Slot instead, and counts its evaluations itself (Derived). The replay is
// cost-only, and counted as one derivation; Used replays a fact for the
// plan's structures.
func (e *Engine) Resolve(event int, join bool, rel, additive []int32, fetch Fetch) (float64, error) {
	s, err := e.Find(event, join, rel, additive, fetch)
	if err != nil {
		return 0, err
	}
	cost, err := s.Replay(event, rel)
	if err == nil {
		e.Derived(1)
	}
	return cost, err
}

// Find is the single-flight lookup of the configuration whose structures
// relevant to the event are rel (interned IDs, ascending): its top is rel
// plus additive — the IDs of the current candidate pool's additive plan
// alternatives for the event, ascending, which the caller must derive from
// the pool alone so that tops, and hence the real calls issued, are
// independent of scheduling. It returns the top's fact when the current
// scope holds one; else a settled fact that covers rel (one an earlier phase
// fetched, or one restored); and only when there is none either does it
// fetch the top's skeleton through fetch (one real call, single-flighted
// across concurrent resolvers and counted as an atom of the event's shape:
// join reports a multi-scope SELECT). A later phase, a revision or a resumed
// session therefore answers from settled facts every evaluation they cover,
// whatever top it asks for, and a request fetches exactly when no earlier
// phase's fact covers it and its own top is not held. Every ID of rel and of
// additive must carry a structure in the interner. A failed fetch returns
// its error — to the resolver that issued it and to every resolver that
// waited on it — and leaves no fact behind, so a later resolution fetches
// afresh; a fetch without a skeleton is an error too.
func (e *Engine) Find(event int, join bool, rel, additive []int32, fetch Fetch) (Slot, error) {
	var buf [maxStackTop]int32
	top := union(buf[:0], rel, additive)
	e.mu.Lock()
	f := e.held(event, top)
	if f == nil {
		f = e.covering(event, rel)
	}
	found := f != nil
	if !found {
		f = &fact{ready: make(chan struct{}), top: slices.Clone(top)}
		e.facts[event] = append(e.facts[event], f)
	}
	settled := f.settled
	e.mu.Unlock()

	if found {
		if !f.done.Load() {
			<-f.ready
		}
	} else {
		f.alts, f.err = fetch(e.topConfig(f.top))
		if f.err == nil && f.alts == nil {
			f.err = fmt.Errorf("derive: event %d: the backend returned no plan skeleton", event)
		}
		if f.err != nil {
			e.mu.Lock()
			e.release(event, f)
			e.mu.Unlock()
		} else {
			e.compile(f)
			for p, id := range f.top {
				if _, in := slices.BinarySearch(additive, id); !in {
					f.own = append(f.own, int32(p))
				}
			}
			shape := 0
			if join {
				shape = 1
			}
			e.atoms[shape].Add(1)
			count(e.mAtoms)
		}
		f.done.Store(true)
		close(f.ready)
	}
	if f.err != nil {
		return Slot{}, f.err
	}
	s := Slot{f: f, need: f.own}
	if settled {
		s.need = f.basePos
	}
	return s, nil
}

// Slot is a ready fact as Find hands it back, with the set of requests it
// answers exactly as Find would, without a fetch: a settled fact answers any
// request it covers (its top holds the request's structures, and the
// request holds its base part), and a fact of the running phase answers only
// requests whose own top is its top (the request holds every structure of
// the top outside the additive subset). The caller may keep a slot until the
// next phase barrier (Settle) or epoch (BumpEpoch) and answer from it with
// no key, top, lock, map, list scan or channel: it marks the top positions
// a request holds and calls Answer. Safe for concurrent use.
type Slot struct {
	f *fact
	// need lists the positions in the top a request must hold to be in the
	// slot's answer set: the base part's for a settled fact, else every
	// structure outside the additive subset.
	need []int32
}

// Top returns the slot's top: its structures' interned IDs, ascending. It
// must not be modified.
func (s Slot) Top() []int32 { return s.f.top }

// Same reports whether two slots hold the same fact.
func (s Slot) Same(o Slot) bool { return s.f == o.f }

// Answer replays the slot's skeleton for the request whose structures are
// the top positions held marks (one entry per Top position; the caller has
// checked that the top holds every structure of the request). ok is false
// when the request is outside the slot's answer set — Find would answer it
// from another fact, or fetch — and when the skeleton offers no selectable
// alternative, which Replay reports as an error.
func (s Slot) Answer(held []bool) (cost float64, ok bool) {
	for _, p := range s.need {
		if !held[p] {
			return 0, false
		}
	}
	return s.f.replayHeld(held, nil)
}

// Replay replays the slot's skeleton for rel, a request Find handed the slot
// back for: cost-only, an error naming the event when the skeleton offers no
// selectable alternative.
func (s Slot) Replay(event int, rel []int32) (float64, error) {
	cost, ok := s.f.replay(rel, nil)
	if !ok {
		// Impossible for a well-formed backend: a base access always exists.
		return 0, fmt.Errorf("derive: event %d: the plan skeleton offers no selectable alternative", event)
	}
	return cost, nil
}

// Lookup answers the cost of the configuration whose structures relevant to
// the event are rel (interned IDs, ascending) from the facts the engine
// already holds, never fetching: a ready current-epoch fact of the event that
// covers rel, else a covering fact of the previous epoch — the answer of a
// session that stopped before re-costing the evaluation under its new
// statistics. ok is false when neither exists. A fact's choice never changes
// the cost: any covering fact replays exactly what a real call would. The
// answer is uncounted: the caller counts it (Derived). Safe on nil.
func (e *Engine) Lookup(event int, rel []int32) (cost float64, ok bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	facts, prev := e.facts[event], e.prev[event]
	e.mu.Unlock()
	f := readyCovering(facts, rel)
	if f == nil {
		f = readyCovering(prev, rel)
	}
	if f == nil {
		return 0, false
	}
	return f.replay(rel, nil)
}

// CheckCovering replays rel against every ready current-epoch fact of the
// event that covers it and compares each replayed cost with cost, bit for
// bit: the property settled facts rest on, that any covering fact
// answers exactly what a real call would. It returns how many facts it
// compared, and an error naming the event at the first disagreement; each
// agreeing fact counts as dta_derive_verify_total{result="cover"}, a
// disagreement as a mismatch. Verify mode runs it on every derived cost.
// Safe on nil.
func (e *Engine) CheckCovering(event int, rel []int32, cost float64) (int, error) {
	if e == nil {
		return 0, nil
	}
	e.mu.Lock()
	facts := e.facts[event]
	e.mu.Unlock()
	n := 0
	for _, f := range facts {
		if !ready(f) || !f.covers(rel) {
			continue
		}
		n++
		if c, ok := f.replay(rel, nil); !ok || math.Float64bits(c) != math.Float64bits(cost) {
			count(e.mVerifyBad)
			return n, fmt.Errorf("derive: verify mismatch on event %d: a covering fact replays %v where the derived cost is %v", event, c, cost)
		}
		count(e.mVerifyCover)
	}
	return n, nil
}

// readyCovering returns a ready fact among facts that covers rel, or nil.
func readyCovering(facts []*fact, rel []int32) *fact {
	for _, f := range facts {
		if ready(f) && f.covers(rel) {
			return f
		}
	}
	return nil
}

// Used returns the keys of the structures the plan of the event uses under
// the configuration whose structures relevant to it are rel (interned IDs,
// ascending), replayed from a current-epoch fact of the event that covers
// rel: its top holds rel, and its base part is rel's. Any covering fact
// answers exactly what a real call would, by the same contract Resolve's
// replay rests on. ok is false when no fact covers rel. Safe on nil.
func (e *Engine) Used(event int, rel []int32) (used []string, ok bool) {
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	facts := e.facts[event]
	e.mu.Unlock()
	if f := readyCovering(facts, rel); f != nil {
		_, ok = f.replay(rel, &used)
		return used, ok
	}
	return nil, false
}

// topConfig builds the configuration of a top from the interner. Structures
// are applied in sorted key order so identical tops always produce identical
// configurations. A top's keys are distinct and its base part comes from one
// configuration — at most one clustered index and one partitioning per table
// — while the pool adds only additive structures, so Structure.ApplyTo's
// duplicate and conflict checks could never fire: each structure is added
// as the interner records it, without a clone and without re-deriving the
// key of every index already present. Interned structures are immutable
// (see Interner), so the configuration may share them with the backend.
func (e *Engine) topConfig(top []int32) *catalog.Configuration {
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	ids := slices.Clone(top)
	slices.SortFunc(ids, func(a, b int32) int { return strings.Compare(e.in.keys[a], e.in.keys[b]) })
	cfg := catalog.NewConfiguration()
	for _, id := range ids {
		switch s := e.in.structs[id]; {
		case s.Index != nil:
			cfg.Indexes = append(cfg.Indexes, s.Index)
		case s.View != nil:
			cfg.Views = append(cfg.Views, s.View)
		default:
			cfg.SetTablePartitioning(s.PartTable, s.Part)
		}
	}
	return cfg
}

// FactRecord is one serialized skeleton fetch: the event it belongs to, the
// base part of its scope, the structures of its top, and the plan skeleton.
// Structures are positions in the Snapshot's Structs table, ascending. Facts
// serialize only for the current statistics epoch, so a restored engine
// never mixes epochs.
type FactRecord struct {
	// Event is the workload event index the fact belongs to.
	Event int `json:"event"`
	// Base lists the base-part structures of the fact's scope.
	Base []int32 `json:"base,omitempty"`
	// Node lists the structures of the fact's top configuration.
	Node []int32 `json:"node,omitempty"`
	// Alts is the plan skeleton.
	Alts *optimizer.Alternatives `json:"alts,omitempty"`
}

// Snapshot is the engine's serializable state at one statistics epoch: every
// fact recorded at the current epoch and the structures those facts name,
// both sorted so identical states produce byte-identical JSON whatever order
// the session interned its structures in. It is the whole costing record of
// a core.CostedPool and a checkpoint: a restored engine answers exactly the
// evaluations the original engine could answer at its final epoch, and,
// through its covering lookup, any other its facts cover.
type Snapshot struct {
	// Structs holds every structure a fact names, sorted by key; facts refer
	// to a structure by its position here.
	Structs []Keyed `json:"structs,omitempty"`
	// Facts holds the current-epoch facts, sorted by (event, base, node).
	Facts []FactRecord `json:"facts,omitempty"`
}

// WriteCanonical writes the snapshot's JSON to w: the bytes json.Marshal
// produces for it, or its error. The fact records are written by hand, each
// skeleton as its memoized Alternatives.CanonicalJSON, so a skeleton shared
// by many sealed pools — a revision's and its parent's, or sessions served
// from one plan cache — is rendered once.
func (s *Snapshot) WriteCanonical(w *canonjson.Writer) {
	w.Raw("{")
	sep := ""
	if len(s.Structs) > 0 {
		w.Raw(`"structs":`)
		w.Marshal(s.Structs)
		sep = ","
	}
	if len(s.Facts) > 0 {
		w.Raw(sep + `"facts":[`)
		for i := range s.Facts {
			if i > 0 {
				w.Raw(",")
			}
			s.Facts[i].writeCanonical(w)
		}
		w.Raw("]")
	}
	w.Raw("}")
}

// writeCanonical writes the record as json.Marshal does.
func (r *FactRecord) writeCanonical(w *canonjson.Writer) {
	w.Raw(`{"event":`)
	w.Int(int64(r.Event))
	if len(r.Base) > 0 {
		w.Raw(`,"base":`)
		w.Int32s(r.Base)
	}
	if len(r.Node) > 0 {
		w.Raw(`,"node":`)
		w.Int32s(r.Node)
	}
	if r.Alts != nil {
		w.Raw(`,"alts":`)
		if b, err := r.Alts.CanonicalJSON(); err != nil {
			w.Fail(err)
		} else {
			w.Bytes(b)
		}
	}
	w.Raw("}")
}

// Snapshot captures the engine's current-epoch state for persistence (the
// previous epoch's facts, which only Lookup reads, could never answer a
// resolution at the final epoch). Safe on nil (returns nil).
func (e *Engine) Snapshot() *Snapshot {
	_, build := e.Capture()
	return build()
}

// Capture is Snapshot in two steps: under the engine's lock it only collects
// the current epoch's ready facts (a fact is immutable once ready), and the
// returned function builds the Snapshot from them without the lock, so
// resolutions and fetches proceed meanwhile. n is how many facts it
// collected: within an epoch ready facts are only ever added (a failed
// fetch leaves before its fact turns ready), so an equal n at a later
// capture means the same facts.
func (e *Engine) Capture() (n int, build func() *Snapshot) {
	if e == nil {
		return 0, func() *Snapshot { return nil }
	}
	type held struct {
		event int
		f     *fact
	}
	e.mu.Lock()
	var facts []held
	for event, list := range e.facts {
		for _, f := range list {
			if ready(f) { // a fetch in flight is not yet a fact worth persisting
				facts = append(facts, held{event, f})
			}
		}
	}
	e.mu.Unlock()
	return len(facts), func() *Snapshot {
		s := &Snapshot{}
		// The Structs table: every structure a fact's top names. Each was
		// interned before its fact was published, so its ID is below Len.
		type named struct {
			id int32
			Keyed
		}
		var table []named
		pos := make([]int32, e.in.Len())
		seen := make([]bool, len(pos))
		for _, h := range facts {
			for _, id := range h.f.top {
				if !seen[id] {
					seen[id] = true
					table = append(table, named{id, Keyed{Key: e.in.Key(id), Structure: e.in.Structure(id)}})
				}
			}
		}
		slices.SortFunc(table, func(a, b named) int { return strings.Compare(a.Key, b.Key) })
		for p, r := range table {
			s.Structs = append(s.Structs, r.Keyed)
			pos[r.id] = int32(p)
		}
		for _, h := range facts {
			f := h.f
			r := FactRecord{Event: h.event, Alts: f.alts}
			r.Node = make([]int32, len(f.top))
			for i, id := range f.top {
				r.Node[i] = pos[id]
			}
			slices.Sort(r.Node)
			for _, p := range r.Node {
				if isBase(s.Structs[p].Structure) {
					r.Base = append(r.Base, p)
				}
			}
			s.Facts = append(s.Facts, r)
		}
		slices.SortFunc(s.Facts, compareFacts)
		return s
	}
}

// compareFacts orders fact records by event, then base part, then top.
func compareFacts(a, b FactRecord) int {
	if a.Event != b.Event {
		return cmp.Compare(a.Event, b.Event)
	}
	if c := slices.Compare(a.Base, b.Base); c != 0 {
		return c
	}
	return slices.Compare(a.Node, b.Node)
}

// Check validates a snapshot's shape: a strictly ascending Structs table of
// structures, and facts in canonical order, without duplicates, each holding
// a skeleton, naming an event in range (events bounds the indexes; negative
// = unknown), and listing strictly ascending positions that index the table,
// its base part exactly the base structures of its top. Restore skips a
// fact it cannot use; Check lets a loader refuse the whole snapshot
// instead. Safe on nil.
func (s *Snapshot) Check(events int) error {
	if s == nil {
		return nil
	}
	for i, k := range s.Structs {
		if isZero(k.Structure) {
			return fmt.Errorf("derive: snapshot structure %d names no structure", i)
		}
		if i > 0 && s.Structs[i-1].Key >= k.Key {
			return fmt.Errorf("derive: snapshot structure table not strictly ascending at %d", i)
		}
	}
	for i, r := range s.Facts {
		switch {
		case r.Event < 0 || (events >= 0 && r.Event >= events):
			return fmt.Errorf("derive: snapshot fact %d: event %d out of range", i, r.Event)
		case r.Alts == nil:
			return fmt.Errorf("derive: snapshot fact %d holds no skeleton", i)
		case i > 0 && compareFacts(s.Facts[i-1], r) >= 0:
			return fmt.Errorf("derive: snapshot fact %d: out of order or duplicate", i)
		}
		var base []int32
		for j, p := range r.Node {
			if p < 0 || int(p) >= len(s.Structs) || (j > 0 && r.Node[j-1] >= p) {
				return fmt.Errorf("derive: snapshot fact %d: structure positions out of range or not strictly ascending", i)
			}
			if isBase(s.Structs[p].Structure) {
				base = append(base, p)
			}
		}
		if !slices.Equal(base, r.Base) {
			return fmt.Errorf("derive: snapshot fact %d: base part is not its top's base structures", i)
		}
	}
	return nil
}

// Restore loads a snapshot into the engine's current statistics epoch,
// beside the facts it holds (a fact it already holds for the same event and
// top is kept): the Structs table is interned once (a structure the
// interner has not seen yet is recorded from it), each fact's positions are
// remapped to interned IDs, its gates are compiled, and every ready fact is
// settled (a restore is a phase barrier), so Resolve's covering lookup
// reaches it. The caller restores a snapshot only under the statistics
// state it was captured in, and before the first resolution of that epoch,
// so every restored fact answers exactly what it answered on the original
// engine and the fetches a session issues stay a function of what it asks. A fact naming a position outside the table, or
// holding no skeleton, is skipped (a later resolution of it simply
// fetches). Safe on nil (either side).
func (e *Engine) Restore(s *Snapshot) {
	if e == nil || s == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]int32, len(s.Structs))
	for p, k := range s.Structs {
		ids[p], _ = e.in.Intern(k.Key, k.Structure)
	}
	empty := len(e.facts) == 0 // nothing to keep: skip the lookups
	for _, r := range s.Facts {
		top, ok := remap(nil, r.Node, ids)
		if !ok || r.Alts == nil || !empty && e.held(r.Event, top) != nil {
			continue
		}
		f := &fact{ready: closed, top: top, alts: r.Alts}
		f.done.Store(true)
		e.compile(f)
		e.facts[r.Event] = append(e.facts[r.Event], f)
	}
	e.settle()
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
	return e.atoms[0].Load() + e.atoms[1].Load()
}

// AtomsByShape breaks Atoms down by event shape: "atom" for single-scope
// events (DML included), "atom-join" for multi-scope SELECTs. Zero counts
// are left out (nil when none, and on a nil engine).
func (e *Engine) AtomsByShape() map[string]int64 {
	if e == nil {
		return nil
	}
	var out map[string]int64
	for shape, key := range [2]string{"atom", "atom-join"} {
		if n := e.atoms[shape].Load(); n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[key] = n
		}
	}
	return out
}

// Derived counts n evaluations answered by derivation, in one update of
// each counter: the caller counts a batch of evaluations at once, so the
// counters workers share are not written once per evaluation. Safe on nil.
func (e *Engine) Derived(n int) {
	if e == nil || n <= 0 {
		return
	}
	e.derivations.Add(int64(n))
	if e.mDerivations != nil {
		e.mDerivations.Add(float64(n))
	}
}

// Derivations reports how many evaluations were answered by derivation
// (Derived's running sum). Safe on nil.
func (e *Engine) Derivations() int64 {
	if e == nil {
		return 0
	}
	return e.derivations.Load()
}

// Stats snapshots the derivation counters for progress reporting: the
// derived-eval count and the atoms by shape. Safe on nil.
func (e *Engine) Stats() (int64, map[string]int64) {
	return e.Derivations(), e.AtomsByShape()
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
