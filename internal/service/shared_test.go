package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/derive"
	"repro/internal/service"
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

// TestResumeParentWrittenStateDir resumes testdata/state-pr18 — a state
// directory written by the commit before the one-writer refactor (PR 18's
// binary: a session parked mid-run after a checkpoint, a daemon after its
// initial tune with its pool beside it) — and checks all three on-disk
// formats still load: the session finishes under its original ID from the
// checkpoint, the daemon comes back with its delta history and its retained
// pool, proven by the next reweight epoch taking the revise path.
func TestResumeParentWrittenStateDir(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "state-pr18"))
	m := newDaemonManager(t)
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
	if err := sessions[0].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	rec, err := sessions[0].Result()
	if err != nil || rec == nil || sessions[0].State() != service.StateDone {
		t.Fatalf("resumed session: state=%s rec=%v err=%v", sessions[0].State(), rec, err)
	}
	// The uninterrupted run issued 540 calls; the checkpoint was taken
	// before call 140, so the resumed run must start warm.
	if rec.Improvement <= 0 || rec.WhatIfCalls >= 540 {
		t.Fatalf("resumed session: improvement %v with %d calls, want a warm start below 540", rec.Improvement, rec.WhatIfCalls)
	}

	daemons, err := m.ResumeDaemons()
	if err != nil {
		t.Fatal(err)
	}
	if len(daemons) != 1 || daemons[0].ID() != "d-0001" {
		t.Fatalf("resumed daemons %v, want [d-0001]", daemons)
	}
	snap := daemons[0].Snapshot()
	if snap.Epochs != 1 || snap.Deltas != 1 || snap.Events != 400 || snap.PoolFingerprint == "" || len(snap.Proposed) == 0 {
		t.Fatalf("resumed daemon snapshot = %+v, want 1 epoch, 1 delta, 400 events, a pool and a proposal", snap)
	}
	res := ingest(t, m, "d-0001", chunkReweight(400, 400))
	if !res.Retuned || res.Path != service.PathRevise || res.Delta == nil || res.Delta.Seq != 2 {
		t.Fatalf("post-resume reweight epoch = %+v, want delta 2 through the revise path", res)
	}
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
