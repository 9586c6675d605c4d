package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/service"
	"repro/internal/workload"
)

// faultSpec returns the fault-matrix spec: CI's fault-matrix job pins it via
// DTA_FAULT_SPEC; locally the default injects a 10% what-if error rate.
func faultSpec() string {
	if s := os.Getenv("DTA_FAULT_SPEC"); s != "" {
		return s
	}
	return "seed=7;whatif:error:0.10"
}

// deriveOpt returns the options.derive value robustness sessions request:
// CI's fault-matrix job pins "verify" in one leg via DTA_DERIVE so every
// derived cost is cross-checked while faults fire; unset defers to the
// server default.
func deriveOpt() string { return os.Getenv("DTA_DERIVE") }

// TestFaultMatrixDegradedSession drives a session through the HTTP API
// against a backend with the fault-matrix injection rate and asserts the
// robustness contract end to end: the session never crashes and never
// returns empty-handed — it finishes as done with StopReason "degraded", a
// real baseline cost, a degraded progress stream, and the retry/fault/
// breaker metric series present in a scrape.
func TestFaultMatrixDegradedSession(t *testing.T) {
	m := service.NewManager(2)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t), DefaultWorkload: slowWorkload(t)}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"options":{"faultSpec":%q,"derive":%q}}`, faultSpec(), deriveOpt())
	resp, err := srv.Client().Post(srv.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	s, ok := m.Get(snap.ID)
	if !ok {
		t.Fatalf("no session %q", snap.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("session did not finish: %v", err)
	}

	final := s.Snapshot()
	if final.State != service.StateDone {
		t.Fatalf("state %q (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("degraded session returned no recommendation")
	}
	if final.Result.StopReason != core.StopDegraded {
		t.Fatalf("StopReason %q, want %q", final.Result.StopReason, core.StopDegraded)
	}
	if final.Result.BaseCost <= 0 {
		t.Fatalf("no baseline cost: %+v", final.Result)
	}
	if !final.Progress.Degraded {
		t.Fatal("final progress snapshot not marked degraded")
	}

	// The robustness series must land in the shared registry scrape.
	mresp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, series := range []string{
		"dta_retries_total", "dta_faults_injected_total",
		"dta_sessions_degraded_total", "dta_breaker_state",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape is missing %s", series)
		}
	}
	// The session is terminal, so no breaker is open any more.
	if !strings.Contains(text, "dta_breaker_state 0") {
		t.Error("dta_breaker_state should read 0 after the session finished")
	}
}

// resumeStatements is the fixed workload of the resume test, varied enough
// that a checkpoint lands mid-run.
func resumeStatements() []workload.Statement {
	var stmts []workload.Statement
	for i := 0; i < 6; i++ {
		stmts = append(stmts,
			workload.Statement{SQL: fmt.Sprintf("SELECT id FROM t WHERE x = %d", 50+i*31)},
			workload.Statement{SQL: fmt.Sprintf("SELECT a, COUNT(*) FROM t WHERE x < %d GROUP BY a", 8+i)},
		)
	}
	return stmts
}

// TestStateDirResume simulates the kill + restart sequence: a state file
// with a mid-run checkpoint (what a crashed dtaserver leaves behind) is
// placed in a fresh manager's state directory; ResumeSessions must restart
// the session under its original ID, converge on the identical
// recommendation an uninterrupted run produces, spend fewer optimizer
// calls doing it, and clean up the state file once terminal.
func TestStateDirResume(t *testing.T) {
	stmts := resumeStatements()
	wl, err := workload.FromStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the uninterrupted run, through the service like any other.
	ref := service.NewManager(2)
	if err := ref.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	refSess, err := ref.Create(service.Request{Workload: wl, Options: core.Options{Derive: derive.Mode(deriveOpt())}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := refSess.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	refRec, refErr := refSess.Result()
	if refErr != nil || refRec == nil {
		t.Fatalf("reference run: rec=%v err=%v", refRec, refErr)
	}

	// Capture the checkpoint a crashed run would have persisted: same
	// workload, same (default) options, fresh identical server.
	var first *core.Checkpoint
	if _, err := core.Tune(smallServer(t), wl, core.Options{
		Derive:          derive.Mode(deriveOpt()),
		CheckpointEvery: 50,
		CheckpointSink: func(ck *core.Checkpoint) {
			if first == nil {
				first = ck
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint emitted; grow the workload")
	}

	// Hand-craft the crashed session's state file, matching the on-disk
	// schema (id + statements + wire options + checkpoint).
	dir := t.TempDir()
	state := struct {
		ID         string                `json:"id"`
		Created    time.Time             `json:"created"`
		Statements []workload.Statement  `json:"statements"`
		Options    service.CreateOptions `json:"options"`
		Checkpoint *core.Checkpoint      `json:"checkpoint"`
	}{ID: "s-0042", Created: time.Now(), Statements: stmts,
		Options: service.CreateOptions{Derive: deriveOpt()}, Checkpoint: first}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-0042.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh manager, fresh backend, same state dir.
	m := service.NewManager(2)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.ResumeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID() != "s-0042" {
		t.Fatalf("resumed %v, want [s-0042]", resumed)
	}
	if err := resumed[0].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rec, err := resumed[0].Result()
	if err != nil || rec == nil {
		t.Fatalf("resumed run: rec=%v err=%v", rec, err)
	}

	if got, want := renderStructures(rec), renderStructures(refRec); got != want {
		t.Fatalf("resumed recommendation differs:\n%s\nvs\n%s", got, want)
	}
	if rec.Cost != refRec.Cost || rec.BaseCost != refRec.BaseCost {
		t.Fatalf("resumed costs differ: %.9f/%.9f vs %.9f/%.9f",
			rec.BaseCost, rec.Cost, refRec.BaseCost, refRec.Cost)
	}
	if rec.WhatIfCalls >= refRec.WhatIfCalls {
		t.Fatalf("resume saved no optimizer calls: %d vs %d", rec.WhatIfCalls, refRec.WhatIfCalls)
	}

	// The state file is deleted once the session is terminal (it may lag
	// Wait by an instant — run() removes it right after finish).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, "s-0042.json")); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("state file survived the session")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The ID sequence advanced past the resumed session.
	next, err := m.Create(service.Request{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	defer next.Cancel()
	if next.ID() != "s-0043" {
		t.Fatalf("next session %q, want s-0043", next.ID())
	}
}

// TestResumeRefusesDamagedSkeletons: a persisted checkpoint whose skeleton
// section names a structure position outside its table fails
// Checkpoint.Check, so ResumeSessions logs "checkpoint refused" and resumes
// the session cold — reaching the uninterrupted run's recommendation with
// its full call count.
func TestResumeRefusesDamagedSkeletons(t *testing.T) {
	stmts := resumeStatements()
	wl, err := workload.FromStatements(stmts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	run := func(s *service.Session) *core.Recommendation {
		t.Helper()
		if err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Result()
		if err != nil || rec == nil {
			t.Fatalf("session %s: rec=%v err=%v", s.ID(), rec, err)
		}
		return rec
	}

	ref := service.NewManager(2)
	if err := ref.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	refSess, err := ref.Create(service.Request{Workload: wl, Options: core.Options{Derive: derive.Mode(deriveOpt())}})
	if err != nil {
		t.Fatal(err)
	}
	refRec := run(refSess)

	// The last checkpoint holding skeleton facts, one of them aimed past the
	// section's structure table.
	var ck *core.Checkpoint
	if _, err := core.Tune(smallServer(t), wl, core.Options{
		Derive:          derive.Mode(deriveOpt()),
		CheckpointEvery: 10,
		CheckpointSink: func(c *core.Checkpoint) {
			if c.Skeletons != nil && len(c.Skeletons.Facts) > 0 {
				ck = c
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint with skeleton facts; grow the workload")
	}
	ck.Skeletons.Facts[0].Node = []int32{int32(len(ck.Skeletons.Structs)) + 3}

	dir := t.TempDir()
	data, err := json.Marshal(map[string]any{
		"id": "s-0042", "statements": stmts,
		"options": service.CreateOptions{Derive: deriveOpt()}, "checkpoint": ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-0042.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	m := service.NewManager(2)
	m.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.ResumeSessions()
	if err != nil || len(resumed) != 1 {
		t.Fatalf("resumed %v, err %v; want one session", resumed, err)
	}
	rec := run(resumed[0])
	if !strings.Contains(logs.String(), "checkpoint refused") || !strings.Contains(logs.String(), "out of range") {
		t.Fatalf("log lacks the refusal naming the damage:\n%s", logs.String())
	}
	if got, want := renderStructures(rec), renderStructures(refRec); got != want || rec.Cost != refRec.Cost || rec.BaseCost != refRec.BaseCost {
		t.Fatalf("cold resume differs from the uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if rec.WhatIfCalls != refRec.WhatIfCalls {
		t.Fatalf("cold resume issued %d calls, the uninterrupted run %d", rec.WhatIfCalls, refRec.WhatIfCalls)
	}
}

func renderStructures(rec *core.Recommendation) string {
	var out []string
	for _, st := range rec.NewStructures {
		out = append(out, st.String())
	}
	return strings.Join(out, "\n")
}

// TestPersistedDeriveModes: session and daemon state files written with
// options.derive unset or "on" — all a deployment of the previous release
// could have left behind that is still valid — resume as before; files
// carrying the removed "off" are skipped with the message naming the removal,
// never resumed under a silently different mode.
func TestPersistedDeriveModes(t *testing.T) {
	for _, c := range []struct {
		mode   string
		resume bool
	}{{"", true}, {"on", true}, {"off", false}} {
		t.Run("derive="+c.mode, func(t *testing.T) {
			dir := t.TempDir()
			for name, state := range map[string]any{
				"s-0007.json": map[string]any{
					"id": "s-0007", "statements": resumeStatements()[:2],
					"options": service.CreateOptions{Features: "IDX", Derive: c.mode},
				},
				"d-0003.daemon.json": map[string]any{
					"id": "d-0003", "backend": "db", "threshold": 0.2,
					"options": service.CreateOptions{Features: "IDX", Derive: c.mode},
				},
			} {
				data, err := json.Marshal(state)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			var logs bytes.Buffer
			m := service.NewManager(2)
			m.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
			if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
				t.Fatal(err)
			}
			if err := m.SetStateDir(dir); err != nil {
				t.Fatal(err)
			}
			sessions, err := m.ResumeSessions()
			if err != nil {
				t.Fatal(err)
			}
			daemons, err := m.ResumeDaemons()
			if err != nil {
				t.Fatal(err)
			}
			if !c.resume {
				if len(sessions) != 0 || len(daemons) != 0 {
					t.Fatalf("derive=%q state resumed: %d sessions, %d daemons", c.mode, len(sessions), len(daemons))
				}
				if n := strings.Count(logs.String(), "was removed"); n != 2 {
					t.Fatalf("want the removal message once per skipped file, got %d in:\n%s", n, logs.String())
				}
				return
			}
			if len(sessions) != 1 || len(daemons) != 1 {
				t.Fatalf("derive=%q: resumed %d sessions, %d daemons, want 1 and 1\n%s", c.mode, len(sessions), len(daemons), logs.String())
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := sessions[0].Wait(ctx); err != nil {
				t.Fatal(err)
			}
			rec, err := sessions[0].Result()
			if err != nil || rec.DerivedEvals == 0 {
				t.Fatalf("resumed session: rec=%+v err=%v, want a derived run", rec, err)
			}
		})
	}
}

// TestResumeServiceWrittenStateDir resumes a state directory the service
// wrote itself rather than a fixture: a session created over HTTP on a state
// directory is parked mid-run; its <id>.json carries exactly the request's
// options and statements; and a copy of the directory resumed on a fresh
// manager reaches the uninterrupted run's recommendation under the same ID.
// The backend offers no skeletons, so a checkpoint would hold no facts to
// replay: none is written — the state file is written once, at create, and
// never rewritten — and the resumed session pays exactly the uninterrupted
// run's calls (TestResumeStateDir resumes a checkpoint with facts, warm).
func TestResumeServiceWrittenStateDir(t *testing.T) {
	var stmts []workload.Statement
	for i, st := range resumeStatements() {
		st.Weight = float64(1 + i%3)
		stmts = append(stmts, st)
	}
	body := service.CreateRequest{Database: "db", Statements: stmts, Options: service.CreateOptions{
		Features: "IDX", StorageMB: 64, TimeLimit: "10m0s", AllowDrops: true, GreedyK: 8,
		SkipReports: true, Parallelism: 1, Derive: deriveOpt(), RetryAttempts: 3,
	}}
	manager := func(dir string) (*service.Manager, *faultyTuner) {
		ft := &faultyTuner{Tuner: smallServer(t), reached: make(chan struct{}), release: make(chan struct{})}
		m := service.NewManager(1)
		if err := m.Register(&service.Backend{Name: "db", Tuner: ft}); err != nil {
			t.Fatal(err)
		}
		if err := m.SetStateDir(dir); err != nil {
			t.Fatal(err)
		}
		return m, ft
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := func(s *service.Session) *core.Recommendation {
		t.Helper()
		if err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		rec, err := s.Result()
		if err != nil || rec == nil || s.State() != service.StateDone {
			t.Fatalf("session %s: state=%s rec=%v err=%v", s.ID(), s.State(), rec, err)
		}
		return rec
	}

	dir := t.TempDir()
	m, ft := manager(dir)
	// The uninterrupted run issues 192 what-if calls and reaches its first
	// checkpoint boundary at 128 (the default CheckpointEvery): park it past
	// that boundary.
	const parkAt = 150
	ft.armAt.Store(parkAt)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/sessions", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var snap service.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 201 {
		t.Fatalf("create: status %d, err %v", resp.StatusCode, err)
	}
	s, _ := m.Get(snap.ID)
	select {
	case <-ft.reached:
	case <-s.Done():
		t.Fatalf("session finished after %d what-if calls, before call %d", ft.whatifs.Load(), parkAt)
	}

	// Parked: the state file is what a killed server leaves behind.
	raw, err := os.ReadFile(filepath.Join(dir, snap.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Statements []workload.Statement  `json:"statements"`
		Options    service.CreateOptions `json:"options"`
		Checkpoint *core.Checkpoint      `json:"checkpoint"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Options, body.Options) {
		t.Fatalf("state file options %+v, want the request's %+v", st.Options, body.Options)
	}
	if !reflect.DeepEqual(st.Statements, body.Statements) {
		t.Fatalf("state file statements %+v, want the request's %+v", st.Statements, body.Statements)
	}
	if st.Checkpoint != nil || m.StateWrites() != 1 {
		t.Fatalf("%d calls in: checkpoint %v after %d state-file writes; want none after the one manifest write",
			parkAt, st.Checkpoint != nil, m.StateWrites())
	}
	copied := copyDir(t, dir)
	close(ft.release)
	ref := wait(s)

	m2, _ := manager(copied)
	resumed, err := m2.ResumeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID() != snap.ID {
		t.Fatalf("resumed %v, want [%s]", resumed, snap.ID)
	}
	rec := wait(resumed[0])
	if got, want := renderStructures(rec), renderStructures(ref); got != want || rec.Cost != ref.Cost || rec.BaseCost != ref.BaseCost {
		t.Fatalf("resumed recommendation differs from the uninterrupted run:\n%s (cost %v base %v)\nvs\n%s (cost %v base %v)",
			got, rec.Cost, rec.BaseCost, want, ref.Cost, ref.BaseCost)
	}
	if rec.WhatIfCalls != ref.WhatIfCalls {
		t.Fatalf("resumed session issued %d calls, the uninterrupted run %d: want equal calls",
			rec.WhatIfCalls, ref.WhatIfCalls)
	}
}
