package core

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// CachedCost is one persisted cost-cache entry: the evaluator's cache key
// (event index + relevant-structure subset, rendered from interned IDs) with
// the optimizer's answer.
type CachedCost struct {
	Key  string   `json:"key"`
	Cost float64  `json:"cost"`
	Used []string `json:"used,omitempty"`
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
	Phase       Phase        `json:"phase"`
	EventsTuned int          `json:"eventsTuned"`
	WhatIfCalls int64        `json:"whatIfCalls"`
	Cache       []CachedCost `json:"cache"`
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

// snapshotCache copies every completed, successful cache entry, sorted by
// key so checkpoint files are byte-stable for identical states. Keys are
// rendered in their persisted form: the event index, a NUL, and the
// canonical keys of the relevant structures, sorted and joined by "|".
// In-flight entries are skipped — their leaders will finish after the crash
// the checkpoint guards against, and a resumed run recomputes them.
func (ev *evaluator) snapshotCache() []CachedCost {
	out := []CachedCost{}
	for i := range ev.tables {
		t := &ev.tables[i]
		t.mu.RLock()
		for _, ce := range t.entries {
			for ; ce != nil; ce = ce.next {
				select {
				case <-ce.ready:
					if ce.err == nil {
						out = append(out, CachedCost{Key: itoa(i) + "\x00" + ev.in.Join(ce.ids), Cost: ce.cost, Used: ce.used})
					}
				default: // in-flight: not yet a fact worth persisting
				}
			}
		}
		t.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// warmStart pre-populates the cost cache from a checkpoint, parsing each
// persisted key back into interned IDs, so a resumed session's replayed
// decisions hit the cache instead of the optimizer. Called before tuning
// starts, while the evaluator is still single-owner; entries naming no
// event of this workload are ignored.
func (ev *evaluator) warmStart(cs []CachedCost) {
	for _, c := range cs {
		event, rel, _ := strings.Cut(c.Key, "\x00")
		i, err := strconv.Atoi(event)
		if err != nil || i < 0 || i >= len(ev.tables) {
			continue
		}
		ids := ev.in.Split(rel)
		ev.tables[i].claim(hashIDs(ids), ids, &cacheEntry{ready: closedReady, cost: c.Cost, used: c.Used})
	}
}
