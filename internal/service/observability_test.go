package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/workload"
)

// promValues parses a Prometheus text exposition and returns every sample
// whose metric name (including _count/_sum/_bucket suffixes) matches name,
// as rendered-label-string → value.
func promValues(tb testing.TB, body, name string) map[string]float64 {
	tb.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			tb.Fatalf("malformed exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		metric, labels := series, ""
		if br := strings.IndexByte(series, '{'); br >= 0 {
			metric, labels = series[:br], series[br:]
		}
		if metric != name {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			tb.Fatalf("bad value in line %q: %v", line, err)
		}
		out[labels] = v
	}
	return out
}

// runSession creates a session over the HTTP API and waits for it to finish,
// returning its ID and terminal snapshot.
func runSession(tb testing.TB, ts *httptest.Server, body string) (string, service.Snapshot) {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		tb.Fatalf("POST /sessions: status %d, error %q", resp.StatusCode, snap.Error)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/sessions/" + snap.ID)
		if err != nil {
			tb.Fatal(err)
		}
		if err := json.NewDecoder(r2.Body).Decode(&snap); err != nil {
			tb.Fatal(err)
		}
		r2.Body.Close()
		if snap.State.Terminal() {
			return snap.ID, snap
		}
		if time.Now().After(deadline) {
			tb.Fatalf("session %s did not finish (state %s)", snap.ID, snap.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsExposition checks the acceptance criterion of the /metrics
// endpoint: after a completed session, the default representation is valid
// Prometheus text whose what-if latency histogram count equals the
// service's exact what-if accounting, and the JSON snapshot is still
// reachable via content negotiation and /metrics.json.
func TestMetricsExposition(t *testing.T) {
	m := service.NewManager(2)
	srv := smallServer(t)
	if err := m.Register(&service.Backend{Name: "db", Tuner: srv, DefaultWorkload: quickWorkload(t, 1)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	_, snap := runSession(t, ts, `{"database":"db"}`)
	if snap.State != service.StateDone {
		t.Fatalf("session state = %s, want done (error %q)", snap.State, snap.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q, want text/plain exposition", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	resp.Body.Close()
	body := sb.String()

	var histCount float64
	for _, v := range promValues(t, body, "dta_whatif_call_duration_seconds_count") {
		histCount += v
	}
	mx := m.Metrics()
	if mx.WhatIfCalls == 0 {
		t.Fatal("Metrics().WhatIfCalls = 0 after a completed session")
	}
	if int64(histCount) != mx.WhatIfCalls {
		t.Fatalf("what-if latency histogram count = %v, want Metrics().WhatIfCalls = %d", histCount, mx.WhatIfCalls)
	}
	if done := promValues(t, body, "dta_sessions_finished_total")[`{state="done"}`]; done != 1 {
		t.Fatalf(`dta_sessions_finished_total{state="done"} = %v, want 1`, done)
	}
	if got := promValues(t, body, "dta_backend_whatif_calls")[`{backend="db"}`]; int64(got) != srv.WhatIfCallCount() {
		t.Fatalf("dta_backend_whatif_calls = %v, want server count %d", got, srv.WhatIfCallCount())
	}
	for _, want := range []string{
		"# TYPE dta_whatif_call_duration_seconds histogram",
		"dta_whatif_call_duration_seconds_bucket",
		"dta_phase_duration_seconds_count",
		"dta_candidates_per_query_count",
		"dta_sessions_created_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}

	// A derivation-enabled session surfaces the dta_derive_* family and the
	// cost cache's fourth outcome ("derived") in the same scrape.
	_, snap2 := runSession(t, ts, `{"database":"db","options":{"derive":"verify"}}`)
	if snap2.State != service.StateDone {
		t.Fatalf("derive session state = %s, want done (error %q)", snap2.State, snap2.Error)
	}
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	derived := string(raw)
	for _, want := range []string{
		`dta_cost_cache_requests_total{outcome="derived"}`,
		"dta_derive_atoms_total",
		"dta_derive_derivations_total",
		`dta_derive_verify_total{result="match"}`,
	} {
		if !strings.Contains(derived, want) {
			t.Errorf("derive exposition is missing %q", want)
		}
	}
	if vals := promValues(t, derived, "dta_derive_verify_total"); vals[`{result="mismatch"}`] != 0 {
		t.Errorf("verify mismatches on a healthy backend: %v", vals)
	}

	// Content negotiation: Accept: application/json yields the JSON view
	// (re-read the totals: the derive session above added calls).
	mx = m.Metrics()
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var negotiated service.Metrics
	if err := json.NewDecoder(resp2.Body).Decode(&negotiated); err != nil {
		t.Fatalf("Accept: application/json did not produce JSON: %v", err)
	}
	resp2.Body.Close()
	if negotiated.WhatIfCalls != mx.WhatIfCalls {
		t.Fatalf("negotiated JSON WhatIfCalls = %d, want %d", negotiated.WhatIfCalls, mx.WhatIfCalls)
	}

	// A faulted backend: the server itself fails and delays what-if calls.
	// Its latency histogram still observes every call it was charged —
	// failed and delayed ones included, timed from before the injection —
	// and its plan cache reports hits and misses.
	faulty := smallServer(t)
	faulty.Name = "faulty"
	spec, err := fault.ParseSpec("seed=11;whatif:error:0.2;whatif:latency:0.5:1ms")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(spec)
	faulty.SetFaults(in)
	if err := m.Register(&service.Backend{Name: "faulty", Tuner: faulty, DefaultWorkload: quickWorkload(t, 2)}); err != nil {
		t.Fatal(err)
	}
	runSession(t, ts, `{"database":"faulty"}`)
	resp4, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(resp4.Body)
	resp4.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped := string(raw)
	fired := in.Counts()
	if fired["whatif/error"] == 0 || fired["whatif/latency"] == 0 {
		t.Fatalf("the fault spec fired too little to test: %v", fired)
	}
	label := `{server="faulty"}`
	if got := promValues(t, scraped, "dta_whatif_call_duration_seconds_count")[label]; int64(got) != faulty.WhatIfCallCount() {
		t.Fatalf("faulted server: latency histogram count = %v, want its %d charged calls", got, faulty.WhatIfCallCount())
	}
	if sum, min := promValues(t, scraped, "dta_whatif_call_duration_seconds_sum")[label], float64(fired["whatif/latency"])*0.001; sum < min {
		t.Fatalf("faulted server: latency histogram sum = %gs, below the %gs of injected latency", sum, min)
	}
	cache := promValues(t, scraped, "dta_whatif_plan_cache_total")
	if cache[`{outcome="miss",server="faulty"}`] == 0 {
		t.Fatalf("faulted server: no plan-cache misses reported: %v", cache)
	}
	if got := cache[`{outcome="hit",server="faulty"}`]; int64(got) != faulty.Acct().PlanCacheHits {
		t.Fatalf("faulted server: plan-cache hits = %v, want Acct().PlanCacheHits = %d", got, faulty.Acct().PlanCacheHits)
	}
}

// TestSessionTraceExport checks GET /sessions/{id}/trace returns Chrome
// trace-event JSON covering at least the session, phase, and what-if span
// levels of a completed session.
func TestSessionTraceExport(t *testing.T) {
	m := service.NewManager(2)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t), DefaultWorkload: quickWorkload(t, 2)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	id, snap := runSession(t, ts, `{"database":"db"}`)
	if snap.State != service.StateDone {
		t.Fatalf("session state = %s, want done", snap.State)
	}

	resp, err := http.Get(ts.URL + "/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			cats[e.Cat]++
		}
	}
	for _, want := range []string{"session", "phase", "whatif"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q spans (categories: %v)", want, cats)
		}
	}
	if cats["whatif"] < 2 {
		t.Errorf("trace has %d what-if spans, expected several", cats["whatif"])
	}

	// The trace of an unknown session is a 404, not a panic.
	r404, err := http.Get(ts.URL + "/sessions/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown session: status %d, want 404", r404.StatusCode)
	}
}

// TestConcurrentSessionsObservability runs several sessions at once — at
// mixed per-session Parallelism levels (1..4), so intra-session worker-pool
// evaluation overlaps inter-session concurrency — each with a live NDJSON
// event-stream reader, then checks the shared registry's what-if histogram
// agrees with the sum of the sessions' exact call counts: the evaluator's
// atomic accounting, the per-session Recommendation.WhatIfCalls, and the obs
// histogram must all tell the same story however many workers raced. Run
// under -race this exercises the concurrency of the whole span/metrics path.
func TestConcurrentSessionsObservability(t *testing.T) {
	m := service.NewManager(3)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	const sessions = 4
	var wg sync.WaitGroup
	ids := make([]string, sessions)
	errs := make(chan error, sessions*2)
	for i := 0; i < sessions; i++ {
		w := quickWorkload(t, i)
		body, _ := json.Marshal(map[string]any{
			"database": "db",
			"statements": []workload.Statement{
				{SQL: w.Events[0].SQL, Weight: 1},
				{SQL: w.Events[1].SQL, Weight: 1},
			},
			"options": map[string]any{"parallelism": 1 + i},
		})
		resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var snap service.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d (%s)", i, resp.StatusCode, snap.Error)
		}
		ids[i] = snap.ID

		// One NDJSON reader per session, concurrent with the tuning run.
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			lines, lastSeq := 0, 0
			for sc.Scan() {
				lines++
				var ev struct {
					Seq   int           `json:"seq"`
					State service.State `json:"state"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					errs <- fmt.Errorf("session %s: bad NDJSON line %q: %w", id, sc.Text(), err)
					return
				}
				if ev.Seq != 0 && ev.Seq < lastSeq {
					errs <- fmt.Errorf("session %s: event seq went backwards (%d after %d)", id, ev.Seq, lastSeq)
					return
				}
				if ev.Seq != 0 {
					lastSeq = ev.Seq
				}
			}
			if lines < 2 {
				errs <- fmt.Errorf("session %s: event stream had %d lines, expected history + terminal snapshot", id, lines)
			}
		}(snap.ID)
	}

	var exact int64
	for _, id := range ids {
		s, ok := m.Get(id)
		if !ok {
			t.Fatalf("session %s vanished", id)
		}
		<-s.Done()
		rec, err := s.Result()
		if err != nil || rec == nil {
			t.Fatalf("session %s: rec=%v err=%v", id, rec, err)
		}
		exact += rec.WhatIfCalls
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		raw.WriteString(sc.Text())
		raw.WriteByte('\n')
	}
	resp.Body.Close()

	var histCount float64
	for _, v := range promValues(t, raw.String(), "dta_whatif_call_duration_seconds_count") {
		histCount += v
	}
	if int64(histCount) != exact {
		t.Fatalf("shared what-if histogram count = %v, want sum of session-exact counts = %d", histCount, exact)
	}
	if mx := m.Metrics(); mx.WhatIfCalls != exact {
		t.Fatalf("Metrics().WhatIfCalls = %d, want %d", mx.WhatIfCalls, exact)
	}
	if got := promValues(t, raw.String(), "dta_session_whatif_calls_total")[""]; int64(got) != exact {
		t.Fatalf("dta_session_whatif_calls_total = %v, want %d", got, exact)
	}
}
