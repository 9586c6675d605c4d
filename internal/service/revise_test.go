package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/service"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func patchJSON(t *testing.T, url string, body any) (int, service.Snapshot) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, snap
}

// TestHTTPRevise drives the interactive-tuning loop over the wire: a
// completed session retains its costed pool (in memory and as
// <id>.pool.json, which terminal-state cleanup must not delete), and
// PATCH /sessions/{id} spawns child sessions that re-run only the search
// layer — a same-constraints revision reproduces the parent's structures,
// a SELECT-only revision with derivation on issues zero what-if calls, and
// lineage flows through both snapshots.
func TestHTTPRevise(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)
	dir := t.TempDir()
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}

	resp, parent := postJSON(t, ts.URL+"/sessions", service.CreateRequest{
		Database: "db",
		Statements: []workload.Statement{
			{SQL: "SELECT id FROM t WHERE x = 42", Weight: 1},
			{SQL: "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a", Weight: 1},
			{SQL: "SELECT SUM(amt) FROM t WHERE a = 7", Weight: 1},
		},
		Options: service.CreateOptions{Features: "IDX", StorageMB: 64, Derive: "on"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sessions = %d", resp.StatusCode)
	}
	snap := waitTerminal(t, ts.URL, parent.ID)
	if snap.State != service.StateDone {
		t.Fatalf("parent state = %s: %+v", snap.State, snap)
	}
	if snap.PoolFingerprint == "" {
		t.Fatal("completed session retains no costed pool")
	}
	if _, err := os.Stat(filepath.Join(dir, parent.ID+".pool.json")); err != nil {
		t.Fatalf("retained pool not persisted: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, parent.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint state file survived terminal state: %v", err)
	}
	// The pool file must not be mistaken for resumable session state.
	if resumed, err := m.ResumeSessions(); err != nil || len(resumed) != 0 {
		t.Fatalf("ResumeSessions over a pool file: %v, resumed %d", err, len(resumed))
	}

	// Same-constraints revision: byte-identical search → same structures.
	code, same := patchJSON(t, ts.URL+"/sessions/"+parent.ID, map[string]any{"storageMB": 64})
	if code != http.StatusCreated {
		t.Fatalf("PATCH same-constraints = %d", code)
	}
	if same.RevisedFrom != parent.ID {
		t.Fatalf("child revisedFrom = %q, want %q", same.RevisedFrom, parent.ID)
	}
	sameSnap := waitTerminal(t, ts.URL, same.ID)
	if sameSnap.State != service.StateDone {
		t.Fatalf("revision state = %s: %+v", sameSnap.State, sameSnap)
	}
	if !sameSnap.Progress.Revised {
		t.Error("revision progress not flagged revised")
	}
	if sameSnap.Result == nil {
		t.Fatal("revision has no result")
	}
	if !reflect.DeepEqual(sameSnap.Result.Structures, snap.Result.Structures) {
		t.Errorf("same-constraints revision recommends %v, parent %v",
			sameSnap.Result.Structures, snap.Result.Structures)
	}
	// SELECT-only workload, derivation on: the search layer answers every
	// evaluation from the pool — zero new optimizer calls.
	if sameSnap.Result.WhatIfCalls != 0 {
		t.Errorf("revision issued %d what-if calls, want 0", sameSnap.Result.WhatIfCalls)
	}

	// Constraint change plus pin resolution against the pool's candidates.
	ps, _ := m.Get(parent.ID)
	pool := ps.Pool()
	if pool == nil || len(pool.Candidates) == 0 {
		t.Fatal("parent pool missing or empty")
	}
	pinKey := pool.Candidates[0].Key()
	code, pinned := patchJSON(t, ts.URL+"/sessions/"+parent.ID,
		map[string]any{"storageMB": 8, "pin": []string{pinKey}})
	if code != http.StatusCreated {
		t.Fatalf("PATCH pin = %d", code)
	}
	pinSnap := waitTerminal(t, ts.URL, pinned.ID)
	if pinSnap.State != service.StateDone {
		t.Fatalf("pinned revision state = %s: %+v", pinSnap.State, pinSnap)
	}

	// Lineage on the parent lists both children, in order.
	_, pSnap := getSnapshot(t, ts.URL+"/sessions/"+parent.ID)
	if want := []string{same.ID, pinned.ID}; !reflect.DeepEqual(pSnap.Revisions, want) {
		t.Errorf("parent revisions = %v, want %v", pSnap.Revisions, want)
	}

	// A revision of a revision works: children retain their own pools.
	code, chained := patchJSON(t, ts.URL+"/sessions/"+same.ID, map[string]any{"storageMB": 16})
	if code != http.StatusCreated {
		t.Fatalf("PATCH chained = %d", code)
	}
	if cs := waitTerminal(t, ts.URL, chained.ID); cs.State != service.StateDone {
		t.Fatalf("chained revision state = %s", cs.State)
	}

	// Error paths: unknown pin key, unknown session, unrevisable session.
	if code, _ := patchJSON(t, ts.URL+"/sessions/"+parent.ID, map[string]any{"pin": []string{"nope"}}); code != http.StatusBadRequest {
		t.Errorf("PATCH unknown pin key = %d, want 400", code)
	}
	if code, _ := patchJSON(t, ts.URL+"/sessions/zzz", map[string]any{}); code != http.StatusNotFound {
		t.Errorf("PATCH unknown session = %d, want 404", code)
	}

	mm := m.Metrics()
	if mm.SessionsRevised != 3 {
		t.Errorf("SessionsRevised = %d, want 3", mm.SessionsRevised)
	}
	if mm.PoolsRetained != 4 { // parent + three completed revisions
		t.Errorf("PoolsRetained = %d, want 4", mm.PoolsRetained)
	}
}

// TestHTTPReviseConflict checks that a session that did not complete —
// here, one cancelled mid-run — rejects revision with 409.
func TestHTTPReviseConflict(t *testing.T) {
	_, ts, gate := newTestAPI(t, 2)
	// Enough statements that the session is still searching at the gated
	// call (the gate parks the tuning goroutine mid-run).
	var stmts []workload.Statement
	for _, e := range slowWorkload(t).Events {
		stmts = append(stmts, workload.Statement{SQL: e.SQL, Weight: e.Weight})
	}
	resp, victim := postJSON(t, ts.URL+"/sessions", service.CreateRequest{
		Database:   "db-gated",
		Statements: stmts,
		Options:    service.CreateOptions{Features: "IDX", NoCompression: true, SkipReports: true},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	select {
	case <-gate.reached:
	case <-time.After(time.Minute):
		t.Fatal("victim never reached its gated call")
	}
	// Mid-run: not terminal, not revisable.
	if code, _ := patchJSON(t, ts.URL+"/sessions/"+victim.ID, map[string]any{"storageMB": 1}); code != http.StatusConflict {
		t.Errorf("PATCH running session = %d, want 409", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+victim.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	if snap := waitTerminal(t, ts.URL, victim.ID); snap.State != service.StateCancelled {
		t.Fatalf("victim state = %s, want cancelled", snap.State)
	}
	// Terminal but not done: still 409.
	if code, _ := patchJSON(t, ts.URL+"/sessions/"+victim.ID, map[string]any{"storageMB": 1}); code != http.StatusConflict {
		t.Errorf("PATCH cancelled session = %d, want 409", code)
	}
}

// TestPoolRetentionTTL checks dtaserver -pool-retention semantics: after
// the TTL a completed session's pool is released (gauge back down, file
// gone) and revision is refused.
func TestPoolRetentionTTL(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)
	dir := t.TempDir()
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	m.SetPoolRetention(80 * time.Millisecond)

	resp, snap := postJSON(t, ts.URL+"/sessions", service.CreateRequest{
		Database: "db",
		Statements: []workload.Statement{
			{SQL: "SELECT id FROM t WHERE x = 3", Weight: 1},
		},
		Options: service.CreateOptions{Features: "IDX"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if s := waitTerminal(t, ts.URL, snap.ID); s.State != service.StateDone {
		t.Fatalf("state = %s", s.State)
	}
	s, _ := m.Get(snap.ID)
	deadline := time.Now().Add(30 * time.Second)
	for s.Pool() != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.Pool() != nil {
		t.Fatal("pool survived its retention TTL")
	}
	if got := m.Metrics().PoolsRetained; got != 0 {
		t.Errorf("PoolsRetained after expiry = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snap.ID+".pool.json")); !os.IsNotExist(err) {
		t.Errorf("pool file survived retention expiry: %v", err)
	}
	if code, _ := patchJSON(t, ts.URL+"/sessions/"+snap.ID, map[string]any{"storageMB": 1}); code != http.StatusConflict {
		t.Errorf("PATCH expired pool = %d, want 409", code)
	}
}

// TestShutdownDisarmsPoolRetention checks that a shut-down manager's
// retention timers never fire: the pool file stays in the state directory
// for the next start, and the stopped manager is not kept reachable until
// the TTL runs out.
func TestShutdownDisarmsPoolRetention(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)
	dir := t.TempDir()
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	const ttl = 80 * time.Millisecond
	m.SetPoolRetention(ttl)

	resp, snap := postJSON(t, ts.URL+"/sessions", service.CreateRequest{
		Database:   "db",
		Statements: []workload.Statement{{SQL: "SELECT id FROM t WHERE x = 3", Weight: 1}},
		Options:    service.CreateOptions{Features: "IDX"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	if s := waitTerminal(t, ts.URL, snap.ID); s.State != service.StateDone {
		t.Fatalf("state = %s", s.State)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * ttl)
	s, _ := m.Get(snap.ID)
	if s.Pool() == nil {
		t.Error("retention timer fired after Shutdown: pool released")
	}
	if _, err := os.Stat(filepath.Join(dir, snap.ID+".pool.json")); err != nil {
		t.Errorf("retention timer fired after Shutdown: pool file: %v", err)
	}
}

// TestRevisionLinksParentPoolFile: a revision that keeps its parent's pool
// (it fetches no skeleton: every evaluation is answered from the pool's
// facts) does not write a second copy of it — its <id>.pool.json is a hard
// link to the parent's — while a vetoing revision, whose search meets
// merged structures no fact names and fetches for them, writes its own pool
// file. The link outlives the parent's retention expiry: the child's file
// stays a readable, valid pool. The parent tunes the toy TPC-H database
// with every feature, whose merging reacts to a veto.
func TestRevisionLinksParentPoolFile(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)
	cat := tpch.Catalog(0.002)
	db, err := tpch.Load(cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
	srv.AttachData(db)
	if err := m.Register(&service.Backend{Name: "tpch", Tuner: srv, BaseConfig: tpch.ConstraintConfig(cat)}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	// The parent's pool expires; its revisions' pools do not (the TTL is
	// read when a pool is retained). Its TTL outlasts the test: the pool
	// expires through ExpirePool once the revisions are checked, so no
	// timer can remove the file while they run.
	m.SetPoolRetention(time.Hour)
	var stmts []workload.Statement
	for _, e := range tpch.Workload().Events {
		stmts = append(stmts, workload.Statement{SQL: e.SQL, Weight: e.Weight})
	}
	resp, parent := postJSON(t, ts.URL+"/sessions", service.CreateRequest{
		Database: "tpch", Statements: stmts,
		Options: service.CreateOptions{Features: "ALL", SkipReports: true, Parallelism: 1},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sessions = %d", resp.StatusCode)
	}
	snap := waitTerminal(t, ts.URL, parent.ID)
	if snap.State != service.StateDone || snap.Result == nil || len(snap.Result.Structures) == 0 {
		t.Fatalf("parent: %+v", snap)
	}
	m.SetPoolRetention(0)
	revise := func(body map[string]any) service.Snapshot {
		t.Helper()
		code, child := patchJSON(t, ts.URL+"/sessions/"+parent.ID, body)
		if code != http.StatusCreated {
			t.Fatalf("PATCH %v = %d", body, code)
		}
		if s := waitTerminal(t, ts.URL, child.ID); s.State != service.StateDone {
			t.Fatalf("revision %v: %+v", body, s)
		}
		return child
	}
	same := revise(map[string]any{})
	ps, _ := m.Get(parent.ID)
	rec, err := ps.Result()
	if err != nil {
		t.Fatal(err)
	}
	vetoed := revise(map[string]any{"veto": []string{rec.NewStructures[0].Key()}})

	stat := func(id string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, id+".pool.json"))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	if !os.SameFile(stat(parent.ID), stat(same.ID)) {
		t.Error("a revision that kept its parent's pool wrote a second copy of it")
	}
	if os.SameFile(stat(parent.ID), stat(vetoed.ID)) {
		t.Error("a vetoing revision shares its parent's pool file")
	}

	m.ExpirePool(ps)
	deadline := time.Now().Add(30 * time.Second)
	for ps.Pool() != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, parent.ID+".pool.json")); !os.IsNotExist(err) {
		t.Fatalf("parent pool file survived its retention expiry: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, same.ID+".pool.json"))
	if err != nil {
		t.Fatalf("the revision's linked pool file went with its parent's: %v", err)
	}
	var pool core.CostedPool
	if err := json.Unmarshal(data, &pool); err != nil {
		t.Fatal(err)
	}
	if err := pool.Check(); err != nil || pool.Fingerprint != snap.PoolFingerprint {
		t.Fatalf("linked pool file: %v (fingerprint %s, parent's %s)", err, pool.Fingerprint, snap.PoolFingerprint)
	}
}
