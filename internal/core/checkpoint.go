package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/canonjson"
	"repro/internal/derive"
)

// CostCacheFormat is the version of the persisted cost-cache layout. Format 1
// was the unversioned string-keyed form (one rendered key per entry, under
// the JSON key "cache"); it decodes to an empty section with format 0 and is
// refused, never misread.
const CostCacheFormat = 2

// CostCache is the persisted form of the evaluator's cost cache, shared by
// checkpoints and sealed pools. Structs spells every structure key the
// entries mention exactly once, sorted; an entry names structures by their
// position in it. Positions are a function of the key set alone, so the
// section — and the fingerprint over it — does not depend on the order, or
// the parallelism, in which a session interned its structures.
type CostCache struct {
	// Format is CostCacheFormat for a section this binary can read.
	Format int `json:"format"`
	// Structs is the key table, ascending.
	Structs []string `json:"structs,omitempty"`
	// Entries holds the completed cost-cache entries, sorted by event, then
	// by IDs.
	Entries []CostEntry `json:"entries,omitempty"`
}

// CostEntry is one cost-cache entry: the optimizer's answer (cost and used
// structures) for event Event under the configuration whose structures
// relevant to the event are IDs. IDs are ascending positions in the
// section's Structs; Used keeps the plan's own order.
type CostEntry struct {
	Event int     `json:"e"`
	IDs   []int32 `json:"k,omitempty"`
	Cost  float64 `json:"c"`
	Used  []int32 `json:"u,omitempty"`
}

// check validates the section's shape: the format, a strictly ascending key
// table, and entries in canonical order whose positions all index the table.
// events bounds the event indexes (negative = unknown).
func (c *CostCache) check(events int) error {
	if c.Format != CostCacheFormat {
		return fmt.Errorf("cost-cache format %d, want %d: written by an older binary, refused", c.Format, CostCacheFormat)
	}
	for i := 1; i < len(c.Structs); i++ {
		if c.Structs[i-1] >= c.Structs[i] {
			return fmt.Errorf("cost-cache key table not strictly ascending at %d", i)
		}
	}
	for i, e := range c.Entries {
		switch {
		case e.Event < 0 || (events >= 0 && e.Event >= events):
			return fmt.Errorf("cost-cache entry %d: event %d out of range", i, e.Event)
		case !c.inTable(e.IDs) || !c.inTable(e.Used):
			return fmt.Errorf("cost-cache entry %d: structure ID out of range", i)
		case !ascending(e.IDs):
			return fmt.Errorf("cost-cache entry %d: IDs not strictly ascending", i)
		case i > 0 && compareEntries(c.Entries[i-1], e) >= 0:
			return fmt.Errorf("cost-cache entry %d: out of order or duplicate", i)
		}
	}
	return nil
}

// writeCanonical writes the section's JSON to w, the bytes json.Marshal
// produces for it.
func (c *CostCache) writeCanonical(w *canonjson.Writer) {
	w.Raw(`{"format":`)
	w.Int(int64(c.Format))
	if len(c.Structs) > 0 {
		w.Raw(`,"structs":`)
		w.Strings(c.Structs)
	}
	if len(c.Entries) > 0 {
		w.Raw(`,"entries":[`)
		for i := range c.Entries {
			e := &c.Entries[i]
			if i > 0 {
				w.Raw(",")
			}
			w.Raw(`{"e":`)
			w.Int(int64(e.Event))
			if len(e.IDs) > 0 {
				w.Raw(`,"k":`)
				w.Int32s(e.IDs)
			}
			w.Raw(`,"c":`)
			w.Float(e.Cost)
			if len(e.Used) > 0 {
				w.Raw(`,"u":`)
				w.Int32s(e.Used)
			}
			w.Raw("}")
		}
		w.Raw("]")
	}
	w.Raw("}")
}

// inTable reports whether every position indexes the key table.
func (c *CostCache) inTable(positions []int32) bool {
	for _, p := range positions {
		if p < 0 || int(p) >= len(c.Structs) {
			return false
		}
	}
	return true
}

// ascending reports whether ids is strictly ascending.
func ascending(ids []int32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}

// compareEntries orders entries by event, then by IDs.
func compareEntries(a, b CostEntry) int {
	if c := cmp.Compare(a.Event, b.Event); c != 0 {
		return c
	}
	return slices.Compare(a.IDs, b.IDs)
}

// Checkpoint is a point-in-time snapshot of a tuning session's restartable
// state: the costing section written so far — a sealed pool's, unsealed.
// The pipeline is deterministic given its optimizer costs, so a resumed
// session replays the search from the start, re-deriving every decision up
// to the crash point from persisted costs and skeletons instead of optimizer
// calls. Phase and EventsTuned are informational; WhatIfCalls is the
// boundary call count that fired the snapshot, that call still in flight.
// Float costs survive the JSON round trip exactly (encoding/json emits
// shortest-round-trip representations), which resume determinism needs.
type Checkpoint struct {
	Phase       Phase `json:"phase"`
	EventsTuned int   `json:"eventsTuned"`
	WhatIfCalls int64 `json:"whatIfCalls"`
	CostingSection
}

// Check validates the checkpoint's costing section; TuneContext refuses a
// Resume checkpoint that fails it.
func (ck *Checkpoint) Check() error { return ck.check("checkpoint", -1) }

// checkpointer drives periodic snapshots: every Options.CheckpointEvery
// what-if calls, the worker counting the boundary call captures the
// session's state under mu, then copies it into a Checkpoint for the sink
// before making the call. Every count takes mu, so no later call is issued
// during the capture: a checkpoint at boundary n holds answers to at most
// the n−1 calls before it, lacking only those in flight. The capture only
// references finished (immutable) cache entries and skeleton facts; the copy
// runs beside the other workers. busy keeps sinks from overlapping; a
// boundary reached while one runs is skipped.
type checkpointer struct {
	sink  func(*Checkpoint)
	every int64
	mu    sync.Mutex
	busy  atomic.Bool
	tr    *tracker
	ev    *evaluator
}

// count charges one call about to be issued to calls, snapshotting at
// interval boundaries, and returns the new count (nil: no snapshots).
func (c *checkpointer) count(calls *atomic.Int64) int64 {
	if c == nil {
		return calls.Add(1)
	}
	c.mu.Lock()
	n := calls.Add(1)
	var build func() *Checkpoint
	if n%c.every == 0 && c.busy.CompareAndSwap(false, true) {
		ck := &Checkpoint{Phase: c.tr.phase, EventsTuned: c.tr.eventsTuned, WhatIfCalls: n}
		drv := c.ev.drv
		if ck.Phase == PhaseBaseline || ck.Phase == PhaseColGroups {
			drv = nil // no skeleton section yet: see warmStart
		}
		cache, skeletons := c.ev.snapshotCache(), drv.Capture()
		build = func() *Checkpoint { ck.Cache, ck.Skeletons = cache(), skeletons(); return ck }
	}
	c.mu.Unlock()
	if build != nil {
		c.sink(build())
		c.busy.Store(false)
	}
	return n
}

// snapshotCache collects every completed, successful cache entry (immutable
// once ready) and returns the function that copies them into the persisted
// form, which may run while workers evaluate on. The copy touches only the
// table's distinct keys, sorted once, and each entry's used keys. In-flight
// entries are skipped — their leaders will finish after the crash the
// checkpoint guards against, and a resumed run recomputes them.
func (ev *evaluator) snapshotCache() func() CostCache {
	type held struct {
		ce     *cacheEntry
		event  int32
		lo, hi int32 // the entry's canonical IDs: ids[lo:hi]
	}
	var entries []held
	for i := range ev.tables {
		t := &ev.tables[i]
		t.mu.RLock()
		for _, ce := range t.entries {
			for ; ce != nil; ce = ce.next {
				select {
				case <-ce.ready:
					if ce.err == nil {
						entries = append(entries, held{ce: ce, event: int32(i)})
					}
				default: // in-flight: not yet a fact worth persisting
				}
			}
		}
		t.mu.RUnlock()
	}
	return func() CostCache {
		// The canonical numbering: positions in the sorted key table. Every
		// collected entry's IDs were interned before the entry was published, so
		// they are all below Len now, even while workers intern more.
		keys := make([]string, ev.in.Len()) // interned ID → key, for the IDs entries name
		pos := map[string]int32{}           // table key → position (filled once sorted)
		nIDs, nUsed := 0, 0
		for _, h := range entries {
			nIDs += len(h.ce.ids)
			nUsed += len(h.ce.used)
			for _, id := range h.ce.ids {
				if keys[id] == "" {
					keys[id] = ev.in.Key(id)
					pos[keys[id]] = 0
				}
			}
			for _, k := range h.ce.used {
				pos[k] = 0
			}
		}
		c := CostCache{Format: CostCacheFormat, Structs: make([]string, 0, len(pos))}
		for k := range pos {
			c.Structs = append(c.Structs, k)
		}
		slices.Sort(c.Structs)
		for p, k := range c.Structs {
			pos[k] = int32(p)
		}
		remap := make([]int32, len(keys))
		for id, k := range keys {
			if k != "" {
				remap[id] = pos[k]
			}
		}

		// Every entry's canonical IDs, ascending, in one backing array.
		ids := make([]int32, 0, nIDs)
		for j := range entries {
			h := &entries[j]
			h.lo = int32(len(ids))
			for _, id := range h.ce.ids {
				ids = append(ids, remap[id])
			}
			h.hi = int32(len(ids))
			slices.Sort(ids[h.lo:h.hi])
		}
		// Entries are grouped by event already; order each event's run by IDs.
		for lo := 0; lo < len(entries); {
			hi := lo + 1
			for hi < len(entries) && entries[hi].event == entries[lo].event {
				hi++
			}
			slices.SortFunc(entries[lo:hi], func(a, b held) int { return slices.Compare(ids[a.lo:a.hi], ids[b.lo:b.hi]) })
			lo = hi
		}
		used := make([]int32, 0, nUsed)
		c.Entries = make([]CostEntry, len(entries))
		for j, h := range entries {
			start := len(used)
			for _, k := range h.ce.used {
				used = append(used, pos[k])
			}
			c.Entries[j] = CostEntry{Event: int(h.event), IDs: ids[h.lo:h.hi:h.hi], Cost: h.ce.cost, Used: used[start:len(used):len(used)]}
		}
		return c
	}
}

// warmStart loads a persisted costing section — the one warm start of
// Revise and of resume: it restores the skeleton facts (at derive epoch 0,
// replacing the engine's) and pre-populates the cost cache, interning each
// persisted table once and ignoring entries that name no event of this
// workload or a position outside their table. Called between parallel
// sections. Facts hold only under the statistics they were fetched under:
//   - Capture: a checkpoint carries skeletons only once its session's
//     statistics pass is over; no what-if call is issued between the
//     candidate-selection phase marker and that pass's epoch bump, so the
//     phase tells. Before it every evaluation is of the base configuration
//     and a fetch's top is the requested key, so the cache holds every answer.
//   - Resume loads the cache at session start and the skeletons right after
//     its own statistics pass's epoch bump, before the query pools are
//     installed (selectCandidates). Restored at start, the bump would hide
//     them; before it they would answer pre-statistics derivations.
//   - Revise restores both at start: a search never creates statistics.
func (ev *evaluator) warmStart(s CostingSection) {
	ev.drv.Restore(s.Skeletons)
	c := s.Cache
	ids := make([]int32, len(c.Structs))
	for p, k := range c.Structs {
		ids[p] = ev.in.ID(k)
	}
	var buf []int32
	for _, e := range c.Entries {
		if e.Event < 0 || e.Event >= len(ev.tables) || !c.inTable(e.Used) {
			continue
		}
		var ok bool
		if buf, ok = derive.Remap(buf[:0], e.IDs, ids); !ok {
			continue
		}
		var used []string
		for _, p := range e.Used {
			used = append(used, c.Structs[p])
		}
		ev.tables[e.Event].claim(hashIDs(buf), buf, &cacheEntry{ready: closedReady, cost: e.Cost, used: used})
	}
}
