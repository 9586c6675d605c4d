package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// sessionState is the on-disk form of one resumable session: the manifest
// (everything needed to recreate the Request) plus the last checkpoint the
// tuning pipeline emitted. One file per session lives under the manager's
// state directory as <id>.json; the file is written when the session is
// created, rewritten at every checkpoint, and deleted when the session
// reaches a terminal state — so after a crash, exactly the in-flight
// sessions remain on disk for ResumeSessions to pick up.
type sessionState struct {
	ID         string               `json:"id"`
	Backend    string               `json:"backend,omitempty"`
	Created    time.Time            `json:"created"`
	Statements []workload.Statement `json:"statements,omitempty"`
	Options    CreateOptions        `json:"options"`
	Checkpoint *core.Checkpoint     `json:"checkpoint,omitempty"`
}

// SetStateDir enables session persistence: every wire-representable session
// writes its manifest and periodic checkpoints under dir, and
// ResumeSessions restarts whatever is found there. The directory is created
// if missing. Call before serving; an empty dir disables persistence.
func (m *Manager) SetStateDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("service: state dir: %w", err)
		}
	}
	m.mu.Lock()
	m.stateDir = dir
	m.mu.Unlock()
	return nil
}

// State files share one directory and are told apart by suffix: an
// in-flight session's manifest + checkpoint, a retained costed pool (a
// session's or a daemon's, in the same JSON form cmd/dta -pool writes and
// -revise reads), and a daemon's state.
const (
	sessionSuffix = ".json"
	poolSuffix    = ".pool.json"
	daemonSuffix  = ".daemon.json"
)

// stateSuffix classifies a state-directory file name: the suffix of the
// kind it belongs to, or "" for anything else — a leftover "*.tmp" from a
// crash between temp-write and rename included.
func stateSuffix(name string) string {
	for _, suffix := range []string{poolSuffix, daemonSuffix, sessionSuffix} {
		if strings.HasSuffix(name, suffix) {
			return suffix
		}
	}
	return ""
}

// statePath returns the path of id's state file of the given kind ("" with
// persistence off).
func (m *Manager) statePath(id, suffix string) string {
	m.mu.Lock()
	dir := m.stateDir
	m.mu.Unlock()
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, id+suffix)
}

// writeStateFile persists v as id's state file of the given kind,
// atomically (temp file + rename): a crash mid-write leaves the previous
// version intact rather than a truncated file. A costed pool is streamed
// through its canonical writer — the bytes its fingerprint hashes — and
// anything else is json.Marshal'd. It reports whether the file was written;
// failures are logged, never fatal — persistence is best-effort beside the
// live object.
func (m *Manager) writeStateFile(id, suffix string, v any) bool {
	path := m.statePath(id, suffix)
	if path == "" {
		return false
	}
	tmp := path + ".tmp"
	err := writeFile(tmp, v)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		// A half-streamed temp file is only litter (scans skip "*.tmp"), so
		// failing to remove it changes nothing.
		_ = os.Remove(tmp)
		m.log.Warn("state file write", "file", id+suffix, "err", err)
		return false
	}
	return true
}

// writeFile writes v's JSON to the file at path.
func writeFile(path string, v any) error {
	if p, ok := v.(*core.CostedPool); ok {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		err = p.WriteCanonical(f)
		return cmp.Or(err, f.Close())
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// removeStateFile deletes id's state file of the given kind. A session's
// <id>.json goes when it turns terminal, so only sessions still in flight
// when the process died remain on disk; its <id>.pool.json deliberately
// outlives it — revisions (and dta -revise against the file) keep working
// until retention expiry; a daemon's two files go when it is closed.
func (m *Manager) removeStateFile(id, suffix string) {
	if path := m.statePath(id, suffix); path != "" {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			m.log.Warn("state file remove", "file", id+suffix, "err", err)
		}
	}
}

// scanState decodes every state file of the given kind, in file-name order
// (creation order: IDs are zero-padded sequence numbers), and hands each to
// restore. Unreadable, corrupt or unrestorable files are logged and
// skipped, never fatal — a crashed server must come back up even if one
// file did not survive.
func scanState[S any](m *Manager, suffix string, restore func(st *S) error) error {
	m.mu.Lock()
	dir := m.stateDir
	m.mu.Unlock()
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || stateSuffix(e.Name()) != suffix {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		st := new(S)
		if err == nil {
			err = json.Unmarshal(data, st)
		}
		if err == nil {
			err = restore(st)
		}
		if err != nil {
			m.log.Warn("state file skipped", "file", e.Name(), "err", err)
		}
	}
	return nil
}

// ResumeSessions scans the state directory and restarts every persisted
// session that is not already live, warm-started from its last checkpoint.
// A resumed session keeps its original ID; because the pipeline is
// deterministic given its cached optimizer costs, it converges on the same
// recommendation the uninterrupted run would have produced. A checkpoint
// that fails Checkpoint.Check is logged and dropped: the session resumes
// cold.
func (m *Manager) ResumeSessions() ([]*Session, error) {
	var resumed []*Session
	err := scanState(m, sessionSuffix, func(st *sessionState) error {
		if st.ID == "" {
			return fmt.Errorf("state names no session")
		}
		if _, live := m.Get(st.ID); live {
			return nil
		}
		req, refused, err := st.prepare()
		if err != nil {
			return err
		}
		if refused != nil {
			// Written by an older binary (or damaged): the session still
			// resumes, cold, and reaches the same recommendation.
			m.log.Warn("checkpoint refused", "session", st.ID, "err", refused)
		}
		s, err := m.create(req, st.ID, st.Checkpoint)
		if err != nil {
			return err
		}
		calls := int64(0)
		if st.Checkpoint != nil {
			calls = st.Checkpoint.WhatIfCalls
		}
		m.log.Info("session resumed", "session", s.ID(), "backend", s.Backend(),
			"checkpointCalls", calls)
		resumed = append(resumed, s)
		return nil
	})
	return resumed, err
}

// prepare is the validation a persisted session passes before it resumes:
// its request must rebuild, and a checkpoint that fails Checkpoint.Check is
// dropped (refused says why), so the session resumes cold.
func (st *sessionState) prepare() (req Request, refused error, err error) {
	if req, err = st.toRequest(); err != nil {
		return Request{}, nil, err
	}
	if st.Checkpoint != nil {
		if refused = st.Checkpoint.Check(); refused != nil {
			st.Checkpoint = nil
		}
	}
	return req, refused, nil
}

// toRequest rebuilds the service request a persisted session was created
// from, through the same wire mapping the HTTP create path uses.
func (st *sessionState) toRequest() (Request, error) {
	cr := CreateRequest{Database: st.Backend, Statements: st.Statements, Options: st.Options}
	return cr.toRequest()
}

// wireOptions maps core.Options back onto the wire form, the inverse of
// CreateOptions.toCore. The bool reports whether the mapping is faithful:
// options carrying programmatic-only state (a user-specified configuration,
// callbacks, ablation knobs the wire form does not expose) cannot round-trip
// through JSON, and sessions created with them are simply not persisted.
func wireOptions(o core.Options) (CreateOptions, bool) {
	representable := o.UserConfig == nil && o.BaseConfig == nil &&
		o.Progress == nil && o.Metrics == nil &&
		o.CheckpointSink == nil && o.Resume == nil && o.PoolSink == nil &&
		len(o.Vetoed) == 0 && len(o.SliceWeights) == 0 && !o.CompressWorkload &&
		!o.NoColGroupRestriction &&
		!o.NoMerging && !o.EagerAlignment && !o.DisableStatReduction &&
		o.CheckpointEvery == 0 && o.StorageBudget%(1<<20) == 0 &&
		o.Retry.BaseDelay == 0 && o.Retry.MaxDelay == 0
	if !representable {
		return CreateOptions{}, false
	}
	c := CreateOptions{
		StorageMB:     o.StorageBudget >> 20,
		Aligned:       o.Aligned,
		NoCompression: o.NoCompression,
		AllowDrops:    o.AllowDrops,
		EvaluateOnly:  o.EvaluateOnly,
		GreedyM:       o.GreedyM,
		GreedyK:       o.GreedyK,
		SkipReports:   o.SkipReports,
		Parallelism:   o.Parallelism,
		Derive:        string(o.Derive),
		RetryAttempts: o.Retry.MaxAttempts,
	}
	if o.Features != 0 {
		c.Features = xmlio.FeatureMaskToString(o.Features)
	}
	if o.TimeLimit != 0 {
		c.TimeLimit = o.TimeLimit.String()
	}
	if spec := o.Faults.Spec(); spec != nil {
		c.FaultSpec = spec.String()
	}
	return c, true
}

// wireStatements renders a workload back to its wire statements so a
// persisted session carries its exact workload (nil workload = the
// backend's default, which re-resolves at resume).
func wireStatements(w *workload.Workload) []workload.Statement {
	if w == nil {
		return nil
	}
	out := make([]workload.Statement, 0, len(w.Events))
	for _, e := range w.Events {
		out = append(out, workload.Statement{SQL: e.SQL, Weight: e.Weight})
	}
	return out
}
