package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

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
	inTable := func(ids []int32) bool {
		for _, id := range ids {
			if id < 0 || int(id) >= len(c.Structs) {
				return false
			}
		}
		return true
	}
	for i, e := range c.Entries {
		switch {
		case e.Event < 0 || (events >= 0 && e.Event >= events):
			return fmt.Errorf("cost-cache entry %d: event %d out of range", i, e.Event)
		case !inTable(e.IDs) || !inTable(e.Used):
			return fmt.Errorf("cost-cache entry %d: structure ID out of range", i)
		case !ascending(e.IDs):
			return fmt.Errorf("cost-cache entry %d: IDs not strictly ascending", i)
		case i > 0 && compareEntries(c.Entries[i-1], e) >= 0:
			return fmt.Errorf("cost-cache entry %d: out of order or duplicate", i)
		}
	}
	return nil
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
// state. The pipeline is deterministic given its optimizer costs (the
// parallel-evaluation design already guarantees identical recommendations
// at every parallelism level), so the cost cache — the product of the
// expensive what-if optimizer calls — is the only state worth persisting:
// a resumed session replays the search from the start, but every decision
// up to the crash point is re-derived from cached costs in microseconds
// instead of optimizer calls, and the run then continues where the
// interrupted one left off. Phase/progress fields are informational (they
// let an operator judge how far a checkpoint got).
//
// Checkpoints marshal to JSON; float64 costs survive the round trip
// exactly (encoding/json emits shortest-round-trip representations), which
// the resume-determinism guarantee depends on.
type Checkpoint struct {
	Phase       Phase     `json:"phase"`
	EventsTuned int       `json:"eventsTuned"`
	WhatIfCalls int64     `json:"whatIfCalls"`
	Cache       CostCache `json:"costCache"`
}

// Check validates the checkpoint's cost-cache section; a checkpoint written
// by an older binary fails it. TuneContext refuses a Resume checkpoint that
// does not pass.
func (ck *Checkpoint) Check() error {
	if err := ck.Cache.check(-1); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// checkpointer drives periodic snapshots: every Options.CheckpointEvery
// what-if calls, the worker that crossed the boundary builds a Checkpoint
// from the evaluator's cache and hands it to the sink. A CAS flag keeps
// snapshots from overlapping; a worker that loses the race simply skips —
// the next boundary will snapshot again.
type checkpointer struct {
	sink  func(*Checkpoint)
	every int64
	busy  atomic.Bool
	tr    *tracker
	ev    *evaluator
}

// maybeSnapshot emits a checkpoint when the call count crosses an interval
// boundary. Called from tracker.countCall on whichever pool worker issued
// the call; the snapshot itself copies the cache under its lock and writes
// the file synchronously (a few ms every `every` optimizer calls).
func (c *checkpointer) maybeSnapshot(calls int64) {
	if c == nil || c.sink == nil || c.ev == nil || calls%c.every != 0 {
		return
	}
	if !c.busy.CompareAndSwap(false, true) {
		return
	}
	defer c.busy.Store(false)
	c.sink(c.snapshot())
}

// snapshot builds the checkpoint from the current tracker and cache state.
func (c *checkpointer) snapshot() *Checkpoint {
	ck := &Checkpoint{Cache: c.ev.snapshotCache()}
	if tr := c.tr; tr != nil {
		ck.Phase = tr.phase
		ck.EventsTuned = tr.eventsTuned
		ck.WhatIfCalls = tr.calls.Load()
	}
	return ck
}

// snapshotCache copies every completed, successful cache entry into the
// persisted form. Entries are read straight from the per-event tables; the
// only strings touched are the distinct keys of the table, which is sorted
// once, and each entry's used keys. In-flight entries are skipped — their
// leaders will finish after the crash the checkpoint guards against, and a
// resumed run recomputes them.
func (ev *evaluator) snapshotCache() CostCache {
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

	// The canonical numbering: positions in the sorted key table. Every
	// collected entry's IDs were interned before the entry was published, so
	// they are all below Len now, even while workers intern more.
	seen := make([]bool, ev.in.Len())
	pos := map[string]int32{} // table key → position (filled once sorted)
	nIDs, nUsed := 0, 0
	for _, h := range entries {
		nIDs += len(h.ce.ids)
		nUsed += len(h.ce.used)
		for _, id := range h.ce.ids {
			seen[id] = true
		}
		for _, k := range h.ce.used {
			pos[k] = 0
		}
	}
	for id, ok := range seen {
		if ok {
			pos[ev.in.Key(int32(id))] = 0
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
	remap := make([]int32, len(seen))
	for id, ok := range seen {
		if ok {
			remap[id] = pos[ev.in.Key(int32(id))]
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

// warmStart pre-populates the cost cache from a persisted section, so a
// resumed session's (or a revision's) replayed decisions hit the cache
// instead of the optimizer. The key table is interned once; after that each
// entry is an integer remap. Called before tuning starts, while the
// evaluator is still single-owner. Entries naming no event of this workload,
// or a position outside the table, are ignored.
func (ev *evaluator) warmStart(c CostCache) {
	ids := make([]int32, len(c.Structs))
	for p, k := range c.Structs {
		ids[p] = ev.in.ID(k)
	}
	var buf []int32
	for _, e := range c.Entries {
		if e.Event < 0 || e.Event >= len(ev.tables) {
			continue
		}
		var ok bool
		if buf, ok = derive.Remap(buf[:0], e.IDs, ids); !ok {
			continue
		}
		used, ok := c.keys(e.Used)
		if !ok {
			continue
		}
		ev.tables[e.Event].claim(hashIDs(buf), buf, &cacheEntry{ready: closedReady, cost: e.Cost, used: used})
	}
}

// keys resolves table positions to their keys (nil for none); ok is false
// when a position is out of range.
func (c *CostCache) keys(positions []int32) (keys []string, ok bool) {
	for _, p := range positions {
		if p < 0 || int(p) >= len(c.Structs) {
			return nil, false
		}
		keys = append(keys, c.Structs[p])
	}
	return keys, true
}
