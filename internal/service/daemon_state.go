package service

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/workload"
)

// daemonState is the on-disk form of one continuous tuning daemon: the
// manifest (backend, options, threshold), the full compressor snapshot, the
// template distribution last tuned, the feedback state, the outstanding
// proposal, and the delta history. One file per daemon lives under the
// manager's state directory as <id>.daemon.json, rewritten after every
// epoch and every feedback call; the retained pool rides beside it as
// <id>.pool.json through the same state-file writer sessions use. Restoring
// the compressor snapshot — rather than replaying the trace — is what makes
// a restarted daemon byte-identical to one that never stopped.
type daemonState struct {
	ID        string                    `json:"id"`
	Backend   string                    `json:"backend,omitempty"`
	Created   time.Time                 `json:"created"`
	Options   CreateOptions             `json:"options"`
	Threshold float64                   `json:"threshold"`
	Epochs    int                       `json:"epochs"`
	Score     float64                   `json:"score"`
	Comp      *workload.CompressorState `json:"compressor,omitempty"`
	LastTuned map[string]float64        `json:"lastTuned,omitempty"`
	Accepted  *catalog.Configuration    `json:"accepted,omitempty"`
	Vetoed    []string                  `json:"vetoed,omitempty"`
	// Proposed is the outstanding proposal (key → structure) the next
	// delta diffs against and feedback keys resolve through.
	Proposed map[string]catalog.Structure `json:"proposed,omitempty"`
	Deltas   []Delta                      `json:"deltas,omitempty"`
	Retunes  map[string]int64             `json:"retunes,omitempty"`
	// LastImprovement/LastCalls summarize the most recent re-tune.
	LastImprovement float64 `json:"lastImprovement,omitempty"`
	LastCalls       int64   `json:"lastCalls,omitempty"`
	// PoolFingerprint cross-checks the <id>.pool.json beside this file; a
	// mismatched or missing pool degrades to the fresh path, never corrupts.
	PoolFingerprint string `json:"poolFingerprint,omitempty"`
}

// writeDaemonState persists the daemon; the caller holds d.mu. A daemon
// whose options are not wire-representable (programmatic callbacks etc.)
// cannot be persisted and is skipped — the HTTP surface only produces
// representable ones.
func (m *Manager) writeDaemonState(d *Daemon) {
	if m.statePath(d.id, daemonSuffix) == "" {
		return // persistence off: skip the compressor snapshot
	}
	st := &daemonState{
		ID:              d.id,
		Backend:         d.backend,
		Created:         d.created,
		Options:         d.wire,
		Threshold:       d.threshold,
		Epochs:          d.epochs,
		Score:           d.score,
		Comp:            d.comp.State(),
		LastTuned:       d.lastTuned,
		Accepted:        d.accepted,
		Vetoed:          d.vetoed,
		Proposed:        d.current,
		Deltas:          d.deltas,
		Retunes:         d.retunes,
		LastImprovement: d.lastImprovement,
		LastCalls:       d.lastCalls,
	}
	if d.pool != nil {
		st.PoolFingerprint = d.pool.Fingerprint
	}
	m.writeStateFile(d.id, daemonSuffix, st)
}

// ResumeDaemons scans the state directory and restores every persisted
// daemon that is not already live: compressor snapshot, feedback state,
// proposal, delta history, and — when the fingerprint beside it still
// matches — the retained costed pool, so the first post-restart re-tune can
// take the revise path. Identical trace and feedback fed to a restored
// daemon produce the identical delta sequence an uninterrupted daemon would
// have emitted.
func (m *Manager) ResumeDaemons() ([]*Daemon, error) {
	var resumed []*Daemon
	err := scanState(m, daemonSuffix, func(st *daemonState) error {
		if st.ID == "" {
			return fmt.Errorf("state names no daemon")
		}
		if _, live := m.GetDaemon(st.ID); live {
			return nil
		}
		d, err := m.resumeDaemon(st)
		if err != nil {
			return err
		}
		m.log.Info("daemon resumed", "daemon", d.id, "backend", d.backend,
			"epochs", st.Epochs, "deltas", len(st.Deltas))
		resumed = append(resumed, d)
		return nil
	})
	return resumed, err
}

// resumeDaemon rebuilds one daemon from its persisted state.
func (m *Manager) resumeDaemon(st *daemonState) (*Daemon, error) {
	b, err := m.backend(st.Backend)
	if err != nil {
		return nil, err
	}
	opts, comp, err := st.prepare()
	if err != nil {
		return nil, err
	}
	threshold := st.Threshold
	if threshold <= 0 {
		threshold = DefaultDriftThreshold
	}
	d, err := m.addDaemon(st.ID, b, st.Options, opts, threshold, comp)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.created = st.Created
	d.epochs = st.Epochs
	d.score = st.Score
	if st.LastTuned != nil {
		d.lastTuned = drift.Distribution(st.LastTuned)
	}
	d.accepted = st.Accepted
	d.vetoed = append([]string(nil), st.Vetoed...)
	if st.Proposed != nil {
		d.current = st.Proposed
	}
	d.deltas = append([]Delta(nil), st.Deltas...)
	for k, v := range st.Retunes {
		d.retunes[k] = v
	}
	d.lastImprovement = st.LastImprovement
	d.lastCalls = st.LastCalls
	d.gScore.Set(d.score)
	if st.PoolFingerprint != "" {
		if pool := m.readPool(d.id, st.PoolFingerprint); pool != nil {
			d.pool = pool
			d.poolDist = statementDistribution(pool.Statements)
			d.poolFile = pool.Fingerprint
		}
	}
	d.mu.Unlock()
	return d, nil
}

// prepare is the validation a persisted daemon passes before it resumes:
// its options must map onto core options and its compressor snapshot, if
// any, must restore.
func (st *daemonState) prepare() (core.Options, *workload.Compressor, error) {
	opts, err := st.Options.toCore()
	if err != nil {
		return core.Options{}, nil, err
	}
	var comp *workload.Compressor
	if st.Comp != nil {
		if comp, err = workload.RestoreCompressor(st.Comp); err != nil {
			return core.Options{}, nil, fmt.Errorf("compressor snapshot: %w", err)
		}
	}
	return opts, comp, nil
}

// readPool loads a daemon's retained pool file, validating it against the
// fingerprint the daemon state recorded and with CostedPool.Check — its
// format, shape and content address. Any mismatch or read failure returns
// nil: the daemon comes back without a pool and simply takes the fresh path
// at its next re-tune.
func (m *Manager) readPool(id, fingerprint string) *core.CostedPool {
	path := m.statePath(id, poolSuffix)
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			m.log.Warn("pool read", "daemon", id, "err", err)
		}
		return nil
	}
	var pool core.CostedPool
	if err := json.Unmarshal(data, &pool); err != nil {
		m.log.Warn("pool corrupt", "daemon", id, "err", err)
		return nil
	}
	if pool.Fingerprint != fingerprint {
		m.log.Warn("pool fingerprint mismatch", "daemon", id,
			"want", fingerprint, "got", pool.Fingerprint)
		return nil
	}
	if err := pool.Check(); err != nil {
		m.log.Warn("pool refused", "daemon", id, "err", err)
		return nil
	}
	return &pool
}
