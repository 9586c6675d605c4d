package service_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func newTestAPI(t *testing.T, workers int) (*service.Manager, *httptest.Server, *gatedTuner) {
	t.Helper()
	srv := smallServer(t)
	m := service.NewManager(workers)
	if err := m.Register(&service.Backend{Name: "db", Tuner: srv, DefaultWorkload: quickWorkload(t, 0)}); err != nil {
		t.Fatal(err)
	}
	// A gated view of the same server, for deterministic mid-run
	// cancellation over HTTP (see gatedTuner).
	gate := newGatedTuner(srv, 120)
	if err := m.Register(&service.Backend{Name: "db-gated", Tuner: gate}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return m, ts, gate
}

func postJSON(t *testing.T, url string, body any) (*http.Response, service.Snapshot) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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
	return resp, snap
}

func getSnapshot(t *testing.T, url string) (int, service.Snapshot) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap service.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, snap
}

func waitTerminal(t *testing.T, base, id string) service.Snapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, snap := getSnapshot(t, base+"/sessions/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /sessions/%s = %d", id, code)
		}
		if snap.State.Terminal() {
			return snap
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s never terminated", id)
	return service.Snapshot{}
}

// TestHTTPLifecycle drives a session from POST through the event stream to
// completion and checks the metrics endpoint.
func TestHTTPLifecycle(t *testing.T) {
	_, ts, _ := newTestAPI(t, 2)

	// Create with explicit statements and options.
	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database": "db",
		"statements": []map[string]any{
			{"sql": "SELECT id FROM t WHERE x = 42", "weight": 2},
			{"sql": "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a"},
		},
		"options": map[string]any{"features": "IDX", "timeLimit": "2m"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sessions = %d", resp.StatusCode)
	}
	if snap.ID == "" || snap.Backend != "db" {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	if loc := resp.Header.Get("Location"); loc != "/sessions/"+snap.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Improvement <= 0 || final.Result.WhatIfCalls <= 0 {
		t.Fatalf("bad result: %+v", final.Result)
	}
	if len(final.Result.Structures) == 0 {
		t.Fatalf("expected recommended structures: %+v", final.Result)
	}

	// The event stream replays history and ends with the terminal snapshot.
	streamResp, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			lines = append(lines, sc.Text())
		}
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines", len(lines))
	}
	var first service.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("bad event line %q: %v", lines[0], err)
	}
	if first.Seq != 1 {
		t.Fatalf("first event seq = %d", first.Seq)
	}
	var last service.Snapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.ID != snap.ID || !last.State.Terminal() {
		t.Fatalf("stream tail: %+v", last)
	}

	// List includes the session; metrics add up.
	resp2, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []service.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(list) == 0 {
		t.Fatal("GET /sessions returned nothing")
	}

	var mx service.Metrics
	resp3, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp3.Body).Decode(&mx); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if mx.SessionsDone < 1 || mx.WhatIfCalls < final.Result.WhatIfCalls {
		t.Fatalf("metrics off: %+v", mx)
	}
}

// TestHTTPCancelAndErrors covers DELETE-driven cancellation, the DTAXML
// input path, and the error responses.
func TestHTTPCancelAndErrors(t *testing.T) {
	_, ts, gate := newTestAPI(t, 1)

	// A session on the gated backend: its 120th what-if call parks inside
	// candidate selection until released, so the DELETE below cancels a
	// genuinely running session mid-search.
	stmts := make([]map[string]any, 0, 60)
	for i := 0; i < 20; i++ {
		stmts = append(stmts,
			map[string]any{"sql": fmt.Sprintf("SELECT id FROM t WHERE x = %d", i*31%2000)},
			map[string]any{"sql": fmt.Sprintf("SELECT a, COUNT(*) FROM t WHERE x < %d GROUP BY a", 10+i)},
			map[string]any{"sql": fmt.Sprintf("SELECT SUM(amt) FROM t WHERE a = %d", i%100)},
		)
	}
	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database":   "db-gated",
		"statements": stmts,
		"options":    map[string]any{"noCompression": true, "skipReports": true},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	select {
	case <-gate.reached:
	case <-time.After(time.Minute):
		t.Fatal("session never reached its gated call")
	}
	// The DELETE cancels the parked session; release the gate once the
	// request has been handled and the session must stop mid-search.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", delResp.StatusCode)
	}
	close(gate.release)
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateCancelled {
		t.Fatalf("state after DELETE = %s", final.State)
	}
	if final.Result == nil || final.Result.StopReason != string(core.StopCancelled) {
		t.Fatalf("cancelled session result: %+v", final.Result)
	}

	// Its event stream (now fully terminal) replays history showing the
	// candidate-selection phase it was cancelled in.
	stream, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	sawCandidates := false
	for sc.Scan() {
		var e service.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		if e.Progress.Phase == core.PhaseCandidates {
			sawCandidates = true
		}
	}
	stream.Body.Close()
	if !sawCandidates {
		t.Fatal("event history never showed candidate selection")
	}

	// DTAXML body on the XML content type.
	xmlBody := `<DTAXML>
  <Input>
    <Database>db</Database>
    <Workload>
      <Statement Weight="3">SELECT SUM(amt) FROM t WHERE a = 7</Statement>
    </Workload>
    <TuningOptions><FeatureSet>IDX</FeatureSet></TuningOptions>
  </Input>
</DTAXML>`
	xresp, err := http.Post(ts.URL+"/sessions", "application/xml", strings.NewReader(xmlBody))
	if err != nil {
		t.Fatal(err)
	}
	var xsnap service.Snapshot
	if err := json.NewDecoder(xresp.Body).Decode(&xsnap); err != nil {
		t.Fatal(err)
	}
	xresp.Body.Close()
	if xresp.StatusCode != http.StatusCreated {
		t.Fatalf("XML POST = %d", xresp.StatusCode)
	}
	if s := waitTerminal(t, ts.URL, xsnap.ID); s.State != service.StateDone {
		t.Fatalf("XML session state = %s (%s)", s.State, s.Error)
	}

	// Errors: unknown session, unknown database, malformed options.
	if code, _ := getSnapshot(t, ts.URL+"/sessions/s-9999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown session = %d", code)
	}
	resp, _ = postJSON(t, ts.URL+"/sessions", map[string]any{"database": "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST unknown database = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/sessions", map[string]any{
		"database": "db",
		"options":  map[string]any{"timeLimit": "soon"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST bad timeLimit = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/sessions", map[string]any{"database": "db", "bogus": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST unknown field = %d", resp.StatusCode)
	}
}

// TestHTTPDeriveOption drives options.derive over the wire: a session on a
// skeleton-returning backend derives by default — reporting derivedEvals and
// fewer what-if calls than the same session on a real-call view of that
// backend, while recommending the identical structures; "verify" derives
// too; and the removed "off" and unknown modes are rejected at create time,
// "off" with the message that names the removal.
func TestHTTPDeriveOption(t *testing.T) {
	srv := smallServer(t)
	m := service.NewManager(2)
	for name, tuner := range map[string]core.Tuner{
		"db": srv,
		// The oracle: the same server with its AlternativesTuner hidden.
		"db-real-call": struct{ core.Tuner }{srv},
	} {
		if err := m.Register(&service.Backend{Name: name, Tuner: tuner, DefaultWorkload: quickWorkload(t, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)

	run := func(backend string, options map[string]any) service.Snapshot {
		t.Helper()
		resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{"database": backend, "options": options})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /sessions %s %v = %d", backend, options, resp.StatusCode)
		}
		final := waitTerminal(t, ts.URL, snap.ID)
		if final.State != service.StateDone {
			t.Fatalf("%s %v: state = %s (%s)", backend, options, final.State, final.Error)
		}
		return final
	}

	// Sessions share the backend, and the first session creates statistics
	// that change later sessions' cost estimates; warm them up front so the
	// comparison sees identical statistics.
	run("db", nil)

	real := run("db-real-call", nil)
	if real.Result.DerivedEvals != 0 {
		t.Fatalf("real-call backend reported derivedEvals=%d", real.Result.DerivedEvals)
	}
	for _, options := range []map[string]any{nil, {"derive": "on"}, {"derive": "Verify"}} {
		on := run("db", options)
		if on.Result.DerivedEvals == 0 {
			t.Fatalf("%v: no derived evaluations", options)
		}
		if on.Result.WhatIfCalls >= real.Result.WhatIfCalls {
			t.Fatalf("%v: derivation must cut calls: %d vs real-call %d", options, on.Result.WhatIfCalls, real.Result.WhatIfCalls)
		}
		if fmt.Sprint(on.Result.Structures) != fmt.Sprint(real.Result.Structures) ||
			on.Result.Improvement != real.Result.Improvement {
			t.Fatalf("%v: recommendation differs from the real-call oracle:\n real: %v (%v)\n got:  %v (%v)", options,
				real.Result.Structures, real.Result.Improvement, on.Result.Structures, on.Result.Improvement)
		}
	}

	for mode, want := range map[string]string{"off": "was removed", "sometimes": "unknown mode"} {
		body, _ := json.Marshal(map[string]any{"database": "db", "options": map[string]any{"derive": mode}})
		resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Fatalf("POST derive=%s = %d %q, want 400 containing %q", mode, resp.StatusCode, msg, want)
		}
	}
}
