package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
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

// copyDir copies every regular file of src into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// resumeStateDir resumes a copy of a fixture state directory holding one
// session parked mid-run after a checkpoint (s-0001) and one daemon after
// its initial tune with its pool beside it (d-0001). It waits for the
// session, compares it with an uninterrupted run of the same request, and
// returns the session's recommendation, the uninterrupted one, the resumed
// daemon's first post-resume reweight epoch and the manager's log.
func resumeStateDir(t *testing.T, fixture string) (rec, ref *core.Recommendation, daemon service.DaemonSnapshot, res *service.EpochResult, logs string) {
	t.Helper()
	dir := copyDir(t, filepath.Join("testdata", fixture))
	var buf bytes.Buffer
	m := newDaemonManager(t)
	m.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	sessions, err := m.ResumeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].ID() != "s-0001" {
		t.Fatalf("resumed sessions %v, want [s-0001]", sessions)
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
	rec = wait(sessions[0])

	// The uninterrupted reference: the same request, fresh, without a state
	// directory.
	var st struct {
		Statements []workload.Statement `json:"statements"`
	}
	data, err := os.ReadFile(filepath.Join("testdata", fixture, "s-0001.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	w, err := workload.FromStatements(st.Statements)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newDaemonManager(t).Create(service.Request{Backend: "db", Workload: w, Options: core.Options{NoCompression: true}})
	if err != nil {
		t.Fatal(err)
	}
	ref = wait(fresh)
	if got, want := renderStructures(rec), renderStructures(ref); got != want || rec.Cost != ref.Cost || rec.BaseCost != ref.BaseCost {
		t.Fatalf("resumed recommendation differs from the uninterrupted run:\n%s (cost %v base %v imp %v)\nvs\n%s (cost %v base %v imp %v)", got, rec.Cost, rec.BaseCost, rec.Improvement, want, ref.Cost, ref.BaseCost, ref.Improvement)
	}

	daemons, err := m.ResumeDaemons()
	if err != nil {
		t.Fatal(err)
	}
	if len(daemons) != 1 || daemons[0].ID() != "d-0001" {
		t.Fatalf("resumed daemons %v, want [d-0001]", daemons)
	}
	daemon = daemons[0].Snapshot()
	if daemon.Epochs != 1 || daemon.Deltas != 1 || daemon.Events != 400 || len(daemon.Proposed) == 0 {
		t.Fatalf("resumed daemon snapshot = %+v, want 1 epoch, 1 delta, 400 events and a proposal", daemon)
	}
	res = ingest(t, m, "d-0001", chunkReweight(400, 400))
	if !res.Retuned || res.Delta == nil || res.Delta.Seq != 2 {
		t.Fatalf("post-resume reweight epoch = %+v, want delta 2", res)
	}
	return rec, ref, daemon, res, buf.String()
}

// TestResumeParentWrittenStateDir resumes testdata/state-pr42 — a state
// directory written by a binary with costing format 3, which persisted the
// cost cache beside the skeleton facts (a session parked mid-run after a
// checkpoint, a daemon after its initial tune with its pool beside it).
// Both persisted costing sections are refused by their format, never
// misread: the session resumes under its original ID cold — its checkpoint
// refused and logged — and reaches exactly the uninterrupted run's
// recommendation with as many calls; the daemon keeps its delta history but
// comes back without its pool, so its next reweight epoch takes the fresh
// path.
func TestResumeParentWrittenStateDir(t *testing.T) {
	rec, ref, daemon, res, logs := resumeStateDir(t, "state-pr42")
	if rec.WhatIfCalls != ref.WhatIfCalls {
		t.Fatalf("cold resume issued %d calls, the uninterrupted run %d", rec.WhatIfCalls, ref.WhatIfCalls)
	}
	if daemon.PoolFingerprint != "" {
		t.Fatalf("daemon resumed with a pre-format pool %s", daemon.PoolFingerprint)
	}
	if res.Path != service.PathFresh {
		t.Fatalf("post-resume reweight epoch path = %q, want %q (no pool)", res.Path, service.PathFresh)
	}
	for _, want := range []string{"checkpoint refused", "pool refused"} {
		if !strings.Contains(logs, want) || !strings.Contains(logs, "costing format 3") {
			t.Fatalf("log lacks %q naming the format:\n%s", want, logs)
		}
	}
}

// TestResumeStateDir resumes testdata/state-pr45, the same scenario written
// by a binary with the current costing format (its checkpoint was captured
// in candidate selection and holds skeleton facts alone): the session
// starts warm from its checkpoint's facts (fewer calls than the
// uninterrupted run, same recommendation) and the daemon's retained pool
// comes back, proven by the next reweight epoch taking the revise path.
func TestResumeStateDir(t *testing.T) {
	rec, ref, daemon, res, logs := resumeStateDir(t, "state-pr45")
	if rec.WhatIfCalls >= ref.WhatIfCalls {
		t.Fatalf("resumed session issued %d calls, the uninterrupted run %d: want a warm start", rec.WhatIfCalls, ref.WhatIfCalls)
	}
	if daemon.PoolFingerprint == "" || res.Path != service.PathRevise {
		t.Fatalf("daemon pool %q, post-resume reweight path %q: want the pool back and the revise path\n%s", daemon.PoolFingerprint, res.Path, logs)
	}
	t.Logf("resumed %d calls, uninterrupted %d", rec.WhatIfCalls, ref.WhatIfCalls)
}

// TestResumeIgnoresLeftoverTempFiles simulates a crash between the state
// writer's temp-write and its rename: "*.tmp" files of all three kinds sit
// in the state directory — one of them valid JSON for an otherwise unknown
// ID — and neither resume scan may pick any of them up.
func TestResumeIgnoresLeftoverTempFiles(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "state-pr18"))
	for _, name := range []string{"s-0001.json", "d-0001.daemon.json", "d-0001.pool.json"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// A complete temp file under another ID (the rename never happened)
		// and a torn one beside the real file.
		other := strings.NewReplacer("s-0001", "s-0777", "d-0001", "d-0777")
		if err := os.WriteFile(filepath.Join(dir, other.Replace(name)+".tmp"), []byte(other.Replace(string(data))), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".tmp"), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := newDaemonManager(t)
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
	if len(sessions) != 1 || sessions[0].ID() != "s-0001" || len(daemons) != 1 || daemons[0].ID() != "d-0001" {
		t.Fatalf("resumed sessions %v and daemons %v, want exactly s-0001 and d-0001", sessions, daemons)
	}
	sessions[0].Cancel()
	if _, ok := m.Get("s-0777"); ok {
		t.Fatal("a session was resumed from a .tmp file")
	}
	if _, ok := m.GetDaemon("d-0777"); ok {
		t.Fatal("a daemon was resumed from a .tmp file")
	}
}

// scrape returns the registry's Prometheus text exposition.
func scrape(t *testing.T, m *service.Manager) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamingHonoursDeriveDefault: a streamed-trace session that leaves
// options.derive empty runs under the server's derive default like every
// other job kind — under dtaserver -derive verify its derived costs are
// cross-checked, visible as dta_derive_verify_total{result="match"}.
func TestStreamingHonoursDeriveDefault(t *testing.T) {
	m := newDaemonManager(t)
	m.SetDeriveDefault(derive.Verify)
	s, err := m.CreateStreaming(service.Request{}, strings.NewReader(traceBody(200)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if s.State() != service.StateDone {
		t.Fatalf("streamed session ended %s", s.State())
	}
	if match := promValues(t, scrape(t, m), "dta_derive_verify_total")[`{result="match"}`]; match == 0 {
		t.Fatal(`dta_derive_verify_total{result="match"} did not move: the streamed session ignored the verify default`)
	}
}

// TestMetricsJSONEqualsPrometheus: /metrics.json is read back from the
// registry series, so after a mixed run — a completed session, one
// cancelled while queued, a failed trace ingest, a revision, a daemon
// re-tune — every JSON field equals the corresponding Prometheus sample.
func TestMetricsJSONEqualsPrometheus(t *testing.T) {
	ft := &faultyTuner{Tuner: smallServer(t), reached: make(chan struct{}), release: make(chan struct{})}
	m := service.NewManager(1)
	if err := m.Register(&service.Backend{Name: "db", Tuner: ft}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := func(s *service.Session, want service.State) {
		t.Helper()
		if err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if s.State() != want {
			t.Fatalf("session %s ended %s, want %s", s.ID(), s.State(), want)
		}
	}

	done, err := m.Create(service.Request{Backend: "db", Workload: quickWorkload(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	wait(done, service.StateDone)
	rev, err := m.Revise(done.ID(), service.ReviseRequest{})
	if err != nil {
		t.Fatal(err)
	}
	wait(rev, service.StateDone)
	if _, err := m.CreateStreaming(service.Request{Backend: "db"}, strings.NewReader("SELECT nope FROM\n")); err == nil {
		t.Fatal("malformed trace accepted")
	}
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, m, d.ID(), chunkBase(400, 0))

	// Park a session on the only worker, cancel another behind it.
	ft.armed.Store(true)
	blocker, err := m.Create(service.Request{Backend: "db", Workload: quickWorkload(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ft.reached:
	case <-ctx.Done():
		t.Fatal("blocker never reached the backend")
	}
	queued, err := m.Create(service.Request{Backend: "db", Workload: quickWorkload(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	wait(queued, service.StateCancelled)
	close(ft.release)
	wait(blocker, service.StateDone)

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mx service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&mx); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, m)
	sample := func(name, labels string) int64 { return int64(promValues(t, text, name)[labels]) }
	retunes := int64(0)
	for _, v := range promValues(t, text, "dta_daemon_retunes_total") {
		retunes += int64(v)
	}
	want := service.Metrics{
		SessionsCreated:   sample("dta_sessions_created_total", ""),
		SessionsDone:      sample("dta_sessions_finished_total", `{state="done"}`),
		SessionsCancelled: sample("dta_sessions_finished_total", `{state="cancelled"}`),
		SessionsFailed:    sample("dta_sessions_finished_total", `{state="failed"}`),
		SessionsRevised:   sample("dta_revise_sessions_total", ""),
		PoolsRetained:     sample("dta_pools_retained", ""),
		WhatIfCalls:       sample("dta_session_whatif_calls_total", ""),
		DaemonsCreated:    sample("dta_daemons_created_total", ""),
		DaemonRetunes:     retunes,
		DeltasEmitted:     sample("dta_delta_churn_count", ""),
		Backends:          mx.Backends,
	}
	if !reflect.DeepEqual(mx, want) {
		t.Fatalf("/metrics.json = %+v\nPrometheus says %+v", mx, want)
	}
	// And the mixed run is what it was meant to be: 5 sessions created; the
	// two tunes, the revision and the daemon's initial re-tune done; one
	// cancelled while queued; one failed ingest.
	if mx.SessionsCreated != 5 || mx.SessionsDone != 4 || mx.SessionsCancelled != 1 ||
		mx.SessionsFailed != 1 || mx.SessionsRevised != 1 || mx.DaemonsCreated != 1 ||
		mx.DaemonRetunes != 1 || mx.DeltasEmitted != 1 || mx.WhatIfCalls == 0 {
		t.Fatalf("mixed run counted as %+v", mx)
	}
}

// TestDaemonRetuneUnderFaults is the daemon's fault-matrix leg: a daemon
// created with the fault-matrix spec re-tunes with injected what-if
// failures. A re-tune must never fail or come back empty-handed — it either
// completes with a non-empty delta or degrades (breaker open) to the
// best-so-far design, which this early in the search may hold nothing yet —
// the daemon must stay usable for the next chunks, and the injected faults
// must be visible in dta_faults_injected_total: the daemon's injector
// reports into the shared registry like a session's.
func TestDaemonRetuneUnderFaults(t *testing.T) {
	m := newDaemonManager(t)
	opts := daemonOpts()
	opts.FaultSpec = faultSpec()
	opts.Derive = deriveOpt()
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	degradedSoFar := 0.0
	retune := func(chunk string) {
		t.Helper()
		res := ingest(t, m, d.ID(), chunk)
		if !res.Retuned || res.Delta == nil {
			t.Fatalf("epoch under faults = %+v, want a re-tune with a delta", res)
		}
		degraded := promValues(t, scrape(t, m), "dta_sessions_degraded_total")[""]
		if degraded == degradedSoFar && (len(res.Delta.Create) == 0 || res.Delta.Improvement <= 0) {
			t.Fatalf("re-tune completed without degrading but proposed nothing: %+v", res.Delta)
		}
		degradedSoFar = degraded
	}
	retune(parityTrace(240))
	// Still usable: a stable chunk is a no-op epoch, a reweight re-tunes.
	if res := ingest(t, m, d.ID(), parityTrace(240)); res.Retuned || res.Epoch != 2 {
		t.Fatalf("stable epoch after a faulty re-tune = %+v", res)
	}
	retune(chunkReweight(600, 0))

	text := scrape(t, m)
	injected := 0.0
	for _, v := range promValues(t, text, "dta_faults_injected_total") {
		injected += v
	}
	if injected == 0 {
		t.Fatal("dta_faults_injected_total did not move: the daemon's injector is not attached to the registry")
	}
	if open := promValues(t, text, "dta_breaker_state")[""]; open != 0 {
		t.Fatalf("dta_breaker_state = %v between re-tunes, want 0", open)
	}
}
