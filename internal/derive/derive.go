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
//     base part) scope — or, when a revision or a resumed session restored
//     persisted facts into it, any restored fact whose top holds S;
//  3. if both are absent, fetch it with one accounted real alternatives call,
//     issued by the engine itself through the caller's Fetch and
//     single-flighted per (scope, top) — an atom, counted by event shape;
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
// never re-enters the caller's cost cache. INSERT, UPDATE and DELETE events
// take the same path: their skeleton (optimizer.Maintenance) is the fixed
// write cost, the access alternatives locating the affected rows, and one
// maintenance term per index or view over the target table, each gated by
// its structure and summed in ascending key order exactly as the optimizer
// sums them. The engine is a fact store plus replay, and nothing else costs
// an event: a failed fetch is the resolution's error, returned to the
// resolver that issued it and to every resolver waiting on the same fact,
// and a skeleton that offers no selectable alternative is a backend bug,
// reported as an error naming the event.
//
// The engine exists only where skeletons do: an evaluator builds one iff its
// backend implements the alternatives call. Over a skeleton-less backend the
// evaluator is the plain real-call evaluator — the oracle the equivalence
// tests and Verify mode compare against.
//
// Internally a structure is a dense ID from the engine's Interner, which the
// evaluator shares for its own cost-cache keys: Resolve takes the event's
// cache key and its additive pool subset (which the evaluator precomputes
// from its relevance bitsets) as ID sets, and tops are ID sets. A skeleton
// names the structures its alternatives need in its gate table
// (optimizer.Alternatives.Gates); the table is resolved to IDs once, when
// the fact becomes ready (fetched or restored), into a slice in the table's
// order, so a replay fills each gate's availability with one binary search
// of the configuration into a stack buffer — no string, no map, no interner
// lock — and the skeleton replays over it by position. The skeleton's
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

// fact is one single-flight skeleton slot, addressed by its event and its
// top's interned ID set within the current statistics epoch: replay needs
// identical statements, identical statistics and identical base-table
// shapes, and a top adds only additive structures, so the top fixes the base
// part. The resolver that created it fills the fetched skeleton, compiles
// its gates and closes ready; concurrent resolvers of the same top wait on
// ready instead of fetching again. A failed fact is removed from the store
// before ready closes, so a later resolution fetches afresh.
type fact struct {
	ready chan struct{}
	top   []int32 // the top's IDs, ascending
	base  []int32 // the top's base-part IDs, ascending
	alts  *optimizer.Alternatives
	// gateIDs holds the ID of each entry of alts' gate table, in its order,
	// or -1 for a gate outside the top: no subset of the top can satisfy
	// it. Immutable once ready closes.
	gateIDs []int32
	err     error
}

// compile resolves the fact's skeleton gate table (Alternatives.Gates: the
// structures its single-scope components, join alternatives, probes and
// views, or DML access paths and maintenance terms are gated by) to IDs, in
// the table's order, and collects the top's base part, under one interner
// read lock; the skeleton's replay form is compiled before the lock is
// taken. Called before the fact is published.
func (e *Engine) compile(f *fact) {
	if f.alts == nil {
		return
	}
	gates := f.alts.Gates()
	f.gateIDs = make([]int32, len(gates))
	e.in.mu.RLock()
	defer e.in.mu.RUnlock()
	for _, id := range f.top {
		if isBase(e.in.structs[id]) {
			f.base = append(f.base, id)
		}
	}
	for i, key := range gates {
		f.gateIDs[i] = -1
		if id, ok := e.in.ids[key]; ok {
			if _, in := slices.BinarySearch(f.top, id); in {
				f.gateIDs[i] = id
			}
		}
	}
}

// Stack buffer sizes: Resolve builds a top, and a replay its gates'
// availability, in a fixed array on the stack; a larger one spills to the
// heap.
const (
	maxStackTop   = 128
	maxStackGates = 64
)

// replay replays the fact's skeleton for rel (ascending IDs, a subset of
// the fact's top), storing the plan's used structures in *used when used is
// non-nil: each gate is available when rel holds its structure, one binary
// search per gate.
func (f *fact) replay(rel []int32, used *[]string) (float64, bool) {
	var buf [maxStackGates]bool
	avail := buf[:0]
	for _, id := range f.gateIDs {
		in := false
		if id >= 0 {
			_, in = slices.BinarySearch(rel, id)
		}
		avail = append(avail, in)
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

// scope addresses the facts of one event and ID set: a top (an index of
// every fact) or a base part (the index of restored facts). hash is the
// hash of the IDs (HashIDs); a lookup compares the full set, so colliding
// sets are told apart.
type scope struct {
	event int
	hash  uint64
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
	// ready, per event; tops indexes the same facts by their top.
	facts map[int][]*fact
	tops  map[scope][]*fact
	// restored indexes the facts Restore loaded into the current epoch by
	// their scope, so Resolve can answer a request no fact matches exactly
	// from one that covers it. Written only by Restore and BumpEpoch.
	restored map[scope][]*fact

	// atoms counts the skeletons fetched, [0] for single-scope events and
	// [1] for joins.
	atoms       [2]atomic.Int64
	derivations atomic.Int64

	mAtoms, mDerivations              *obs.Counter
	mVerifyOK, mVerifyBad, mVerifyErr *obs.Counter
}

// New returns an engine in the given mode ("" → On) with its own interner.
func New(mode Mode) *Engine {
	if mode == "" {
		mode = On
	}
	return &Engine{mode: mode, in: NewInterner(), facts: map[int][]*fact{}, tops: map[scope][]*fact{}}
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
	const vHelp = "Verify-mode cross-checks of derived costs against real optimizer calls."
	e.mVerifyOK = reg.Counter("dta_derive_verify_total", vHelp, "result", "match")
	e.mVerifyBad = reg.Counter("dta_derive_verify_total", vHelp, "result", "mismatch")
	e.mVerifyErr = reg.Counter("dta_derive_verify_total", vHelp, "result", "error")
}

// BumpEpoch starts a new skeleton scope after statistics creation: costs
// computed under different statistics states are not comparable, so the
// previous epoch's skeletons, restored ones included, are dropped and the
// next resolution of each (event, top) fetches afresh. The caller clears its
// cost cache at the same point, so every cost it holds afterwards was
// replayed from a fact of the new epoch. Safe on nil.
func (e *Engine) BumpEpoch() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.facts, e.tops, e.restored = map[int][]*fact{}, map[scope][]*fact{}, nil
	e.mu.Unlock()
}

// held returns the event's fact for top, or nil; e.mu must be held.
func (e *Engine) held(event int, top []int32) *fact {
	for _, f := range e.tops[scope{event, HashIDs(top)}] {
		if slices.Equal(f.top, top) {
			return f
		}
	}
	return nil
}

// hold records a fact of the event in both indexes; e.mu must be held.
func (e *Engine) hold(event int, f *fact) {
	e.facts[event] = append(e.facts[event], f)
	k := scope{event, HashIDs(f.top)}
	e.tops[k] = append(e.tops[k], f)
}

// release removes a failed fact of the event from both indexes; e.mu must
// be held. The event's list is replaced, not edited, because Used walks it
// outside the lock.
func (e *Engine) release(event int, f *fact) {
	other := func(g *fact) bool { return g == f }
	e.facts[event] = slices.DeleteFunc(slices.Clone(e.facts[event]), other)
	k := scope{event, HashIDs(f.top)}
	if list := slices.DeleteFunc(e.tops[k], other); len(list) > 0 {
		e.tops[k] = list
	} else {
		delete(e.tops, k)
	}
}

// covering returns a restored fact of the event that covers rel — its base
// part is rel's and its top holds rel — or nil. Restored facts are all ready
// before the first resolution of their epoch, so whether one answers a
// request depends on the request alone, never on scheduling. e.mu must be
// held.
func (e *Engine) covering(event int, rel []int32) *fact {
	if len(e.restored) == 0 {
		return nil
	}
	var buf [maxStackTop]int32
	base := buf[:0]
	e.in.mu.RLock()
	for _, id := range rel {
		if isBase(e.in.structs[id]) {
			base = append(base, id)
		}
	}
	e.in.mu.RUnlock()
	for _, f := range e.restored[scope{event, HashIDs(base)}] {
		if f.covers(rel) {
			return f
		}
	}
	return nil
}

// Resolve derives the cost of the configuration whose structures relevant to
// the event are rel (interned IDs, ascending): its top is rel plus additive —
// the IDs of the current candidate pool's additive plan alternatives for the
// event, ascending, which the caller must derive from the pool alone so that
// tops, and hence the real calls issued, are independent of scheduling. It
// replays the top's skeleton restricted to rel; when the current scope holds
// no fact for the top, it replays a restored fact that covers rel instead,
// and only when there is none either fetches the top's skeleton through
// fetch (one real call, single-flighted across concurrent resolvers and
// counted as an atom of the event's shape: join reports a multi-scope
// SELECT). A revision or a resumed session therefore answers from its
// restored facts every evaluation they cover, whatever top it asks for.
// Every ID of rel and of additive must carry a structure in the interner. A failed fetch returns its error —
// to the resolver that issued it and to every resolver that waited on it —
// and leaves no fact behind, so a later resolution fetches afresh; a fetch
// without a skeleton, or a skeleton with no selectable alternative for rel,
// is an error too. The replay is cost-only; Used replays a fact for the
// plan's structures.
func (e *Engine) Resolve(event int, join bool, rel, additive []int32, fetch Fetch) (float64, error) {
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
		e.hold(event, f)
	}
	e.mu.Unlock()

	if found {
		<-f.ready
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
			shape := 0
			if join {
				shape = 1
			}
			e.atoms[shape].Add(1)
			count(e.mAtoms)
		}
		close(f.ready)
	}
	if f.err != nil {
		return 0, f.err
	}
	cost, ok := f.replay(rel, nil)
	if !ok {
		// Impossible for a well-formed backend: a base access always exists.
		return 0, fmt.Errorf("derive: event %d: the plan skeleton offers no selectable alternative", event)
	}
	e.derivations.Add(1)
	count(e.mDerivations)
	return cost, nil
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
	for _, f := range facts {
		select {
		case <-f.ready:
			if f.err == nil && f.covers(rel) {
				_, ok = f.replay(rel, &used)
				return used, ok
			}
		default: // in flight
		}
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
// engine holds no older facts: they could never answer a resolution at the
// final epoch). Safe on nil (returns nil).
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
			select {
			case <-f.ready:
				facts = append(facts, held{event, f})
			default: // fetch in flight: not yet a fact worth persisting
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
// remapped to interned IDs, its gates are compiled, and it is indexed by
// its scope for Resolve's covering lookup. The caller restores a snapshot
// only under the statistics state it was captured in, and before the first
// resolution of that epoch, so every restored fact answers exactly what it
// answered on the original engine and the fetches a session issues stay a
// function of what it asks. A fact naming a position outside the table, or
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
		e.compile(f)
		e.hold(r.Event, f)
		if e.restored == nil {
			e.restored = map[scope][]*fact{}
		}
		k := scope{r.Event, HashIDs(f.base)}
		e.restored[k] = append(e.restored[k], f)
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

// Derivations reports how many evaluations were answered by derivation.
// Safe on nil.
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
