package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/derive"
)

// CostingFormat is the version of the persisted costing layout checkpoints
// and sealed pools share. Formats 1–3 persisted the evaluator's cost cache
// beside the skeleton facts, and versioned the section inside it (format 1,
// unversioned, decodes as format 0); format 4 keeps the facts alone — a
// revision or a resumed session answers every evaluation by replaying a fact
// that covers it. An older section is refused by its format, never misread.
const CostingFormat = 4

// CostingSection is the persisted costing state checkpoints and sealed pools
// share: the derivation engine's skeleton facts at the current statistics
// epoch, when the backend offers them (a skeleton-less backend persists
// none, so its revisions and resumed sessions re-cost with real calls).
type CostingSection struct {
	// Format is CostingFormat for a section this binary can read.
	Format    int              `json:"costingFormat"`
	Skeletons *derive.Snapshot `json:"skeletons,omitempty"`
	// OldCache is only ever decoded: formats 1–3 carried their version in
	// the cost cache, so a refusal can name the format it found.
	OldCache *struct {
		Format int `json:"format"`
	} `json:"costCache,omitempty"`
}

// check validates the section's format and its facts' shape, naming what in
// the error; events bounds the facts' event indexes (negative = unknown). A
// section written by an older binary fails it.
func (s *CostingSection) check(what string, events int) error {
	if s.Format != CostingFormat || s.OldCache != nil {
		found := s.Format
		if s.OldCache != nil {
			found = s.OldCache.Format
		}
		return fmt.Errorf("core: %s: costing format %d, want %d: written by an older binary, refused", what, found, CostingFormat)
	}
	if err := s.Skeletons.Check(events); err != nil {
		return fmt.Errorf("core: %s: %w", what, err)
	}
	return nil
}

// Checkpoint is a point-in-time snapshot of a tuning session's restartable
// state: the costing section written so far — a sealed pool's, unsealed.
// The pipeline is deterministic given its optimizer costs, so a resumed
// session replays the search from the start, re-deriving every decision up
// to the crash point by replaying persisted skeleton facts instead of
// issuing optimizer calls. Phase and EventsTuned are informational;
// WhatIfCalls is the boundary call count that fired the snapshot, that call
// still in flight. Skeleton floats survive the JSON round trip exactly
// (encoding/json emits shortest-round-trip representations), which resume
// determinism needs.
type Checkpoint struct {
	Phase       Phase `json:"phase"`
	EventsTuned int   `json:"eventsTuned"`
	WhatIfCalls int64 `json:"whatIfCalls"`
	CostingSection
}

// Check validates the checkpoint's costing section and refuses one captured
// before candidate selection's statistics pass (an older binary wrote such
// checkpoints; their costs predate the statistics a resumed session
// restores under); TuneContext refuses a Resume checkpoint that fails it.
func (ck *Checkpoint) Check() error {
	if ck.Phase == PhaseBaseline || ck.Phase == PhaseColGroups {
		return fmt.Errorf("core: checkpoint: captured in phase %q, before the statistics pass", ck.Phase)
	}
	return ck.check("checkpoint", -1)
}

// checkpointer drives periodic snapshots: every Options.CheckpointEvery
// what-if calls, the worker counting the boundary call captures the
// session's state under mu, then copies it into a Checkpoint for the sink
// before making the call. Every count takes mu, so no later call is issued
// during the capture: a checkpoint at boundary n holds answers to at most
// the n−1 calls before it, lacking only those in flight. The capture only
// references ready (immutable) skeleton facts; the copy runs beside the
// other workers. busy keeps sinks from overlapping; a boundary reached while
// one runs is skipped, and so is one that would add no fact to the last
// checkpoint's (a resumed session replays facts alone, so such a checkpoint
// would resume exactly as the last one does) — over a skeleton-less backend,
// every boundary.
type checkpointer struct {
	sink  func(*Checkpoint)
	every int64
	mu    sync.Mutex
	busy  atomic.Bool
	tr    *tracker
	drv   *derive.Engine
	// facts is how many facts the last checkpoint carried; mu guards it.
	facts int
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
		if facts, skeletons := c.drv.Capture(); facts > c.facts {
			c.facts = facts
			ck := &Checkpoint{Phase: c.tr.phase, EventsTuned: c.tr.eventsTuned, WhatIfCalls: n}
			build = func() *Checkpoint {
				ck.CostingSection = CostingSection{Format: CostingFormat, Skeletons: skeletons()}
				return ck
			}
		} else {
			c.busy.Store(false)
		}
	}
	c.mu.Unlock()
	if build != nil {
		c.sink(build())
		c.busy.Store(false)
	}
	return n
}
