package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
)

// ReviseRequest is the JSON body of PATCH /sessions/{id}: the constraint
// changes to replay against the completed session's retained costed pool.
// Absent (null) fields inherit the parent session's value; present fields
// replace it wholesale — an empty non-null pin or veto list clears the
// inherited one.
type ReviseRequest struct {
	// StorageMB replaces the recommendation's storage budget (0 = unbounded).
	StorageMB *int64 `json:"storageMB,omitempty"`
	// Aligned replaces the partition-alignment requirement.
	Aligned *bool `json:"aligned,omitempty"`
	// Pin replaces the pinned partial configuration with the structures
	// named by these keys, resolved against the pool's candidate set, its
	// base configuration, and the parent's own pinned structures. An
	// unresolvable key fails the request.
	Pin []string `json:"pin,omitempty"`
	// Veto replaces the vetoed structure keys: matching candidates are
	// excluded from merging and enumeration.
	Veto []string `json:"veto,omitempty"`
	// SliceWeights replaces the workload-slice weight multipliers
	// (statement template signature → multiplier).
	SliceWeights map[string]float64 `json:"sliceWeights,omitempty"`
}

// mergeConstraints applies a revision request on top of the parent
// session's constraints; an unresolvable pin key fails the request.
func mergeConstraints(cons core.Constraints, pool *core.CostedPool, req ReviseRequest) (core.Constraints, error) {
	if req.StorageMB != nil {
		cons.StorageBudget = *req.StorageMB << 20
	}
	if req.Aligned != nil {
		cons.Aligned = *req.Aligned
	}
	if req.Veto != nil {
		cons.Vetoed = req.Veto
	}
	if req.SliceWeights != nil {
		cons.SliceWeights = req.SliceWeights
	}
	if req.Pin != nil {
		if len(req.Pin) == 0 {
			cons.Pinned = nil
		} else {
			sts, err := pool.Resolve(req.Pin, cons.Pinned.Structures())
			if err != nil {
				return cons, fmt.Errorf("service: pin: %w", err)
			}
			pin := catalog.NewConfiguration()
			for _, st := range sts {
				st.ApplyTo(pin)
			}
			cons.Pinned = pin
		}
	}
	return cons, nil
}

// errNotRevisable marks Revise's refusals that are about the parent's state
// rather than the request (HTTP 409): not done, or no pool retained.
var errNotRevisable = errors.New("service: not revisable")

// Revise creates a child session that replays the parent's retained costed
// pool under changed constraints, re-running only the search layer — no
// candidate regeneration, and no what-if call the pool can't answer or
// derive. The child runs asynchronously like any session, queued behind the
// worker limit; its snapshot carries the parent in RevisedFrom and the
// parent's snapshot lists it under Revisions. The parent must be a
// completed (done) session whose pool is still retained.
func (m *Manager) Revise(parentID string, req ReviseRequest) (*Session, error) {
	parent, ok := m.Get(parentID)
	if !ok {
		return nil, fmt.Errorf("service: no session %q", parentID)
	}
	parent.mu.Lock()
	state := parent.state
	pool := parent.pool
	cons := parent.cons
	parent.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("%w: session %s is %s; revision requires a completed session", errNotRevisable, parentID, state)
	}
	if pool == nil {
		return nil, fmt.Errorf("%w: session %s retains no costed pool (retention expired, or the session predates pool retention)", errNotRevisable, parentID)
	}
	cons, err := mergeConstraints(cons, pool, req)
	if err != nil {
		return nil, err
	}
	b, err := m.backend(parent.backend)
	if err != nil {
		return nil, err
	}

	ctx, s, err := m.addSession("", parent.backend, parent.id, cons)
	if err != nil {
		return nil, err
	}
	parent.mu.Lock()
	parent.revisions = append(parent.revisions, s.id)
	parent.mu.Unlock()
	m.cRevSessions.Inc()
	m.log.Info("revision created", "session", s.id, "parent", parent.id,
		"backend", parent.backend, "pool", pool.Fingerprint[:12])

	// A revision is a session whose job replays the search layer against the
	// pool; what it adds is the dta_revise_* series. The revised session
	// retains its own pool, so revisions chain.
	go func() {
		out := m.runJob(ctx, s.job(m, job{
			kind: "revision",
			args: map[string]any{"backend": b.Name, "revisedFrom": parent.id, "pool": pool.Fingerprint},
			opts: m.prepare(b, core.Options{}),
			exec: func(ctx context.Context, opts core.Options) (*core.Recommendation, error) {
				return core.Revise(ctx, b.Tuner, pool, cons, opts)
			},
		}))
		m.hRevDuration.Observe(out.elapsed.Seconds())
		if out.rec != nil {
			m.cRevCalls.Add(float64(out.rec.WhatIfCalls))
		}
		s.finish(out)
	}()
	return s, nil
}
