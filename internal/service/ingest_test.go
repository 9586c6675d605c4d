package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/workload"
)

// traceBody renders a templated trace over the small test server's tables:
// events raw statements across two templates with weights and durations.
func traceBody(events int) string {
	var b strings.Builder
	for i := 0; i < events; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "2\t0.5\tSELECT id FROM t WHERE x = %d\n", (i*37)%2000)
		} else {
			fmt.Fprintf(&b, "SELECT SUM(amt) FROM t WHERE a = %d\n", i%100)
		}
	}
	return b.String()
}

func postTrace(t *testing.T, base, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/sessions/trace?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestHTTPStreamingIngest(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)

	const events = 10000
	opts, _ := json.Marshal(map[string]any{"features": "IDX", "skipReports": true})
	q := "database=db&options=" + url.QueryEscape(string(opts))
	resp, raw := postTrace(t, ts.URL, q, traceBody(events))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /sessions/trace = %d: %s", resp.StatusCode, raw)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Progress.IngestedEvents != events {
		t.Fatalf("ingested %d events, want %d", snap.Progress.IngestedEvents, events)
	}
	if snap.Progress.IngestedBytes == 0 {
		t.Fatal("ingested bytes not reported")
	}

	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.IngestedEvents != events {
		t.Fatalf("result must carry ingest volume: %+v", final.Result)
	}
	if final.Result.EventsTuned >= events/10 {
		t.Fatalf("compression did not engage: %d events tuned of %d raw", final.Result.EventsTuned, events)
	}
	if final.Result.Improvement <= 0 {
		t.Fatalf("no improvement: %+v", final.Result)
	}
	if final.Progress.IngestedEvents != events {
		t.Fatalf("terminal snapshot lost ingest volume: %+v", final.Progress)
	}

	// The event stream carries ingest-phase snapshots before the pipeline
	// phases (10k events with a 4096-event flush interval → at least two).
	streamResp, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	ingestSnaps := 0
	sc := bufio.NewScanner(streamResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // final line is a Snapshot, not an Event
		}
		if ev.Progress.Phase == core.PhaseIngest {
			ingestSnaps++
		}
	}
	if ingestSnaps < 2 {
		t.Fatalf("want ≥ 2 ingest-phase events in the stream, got %d", ingestSnaps)
	}

	// The ingest metric series moved.
	mreq, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	text := string(prom)
	for _, series := range []string{"dta_ingest_events_total", "dta_ingest_bytes_total", "dta_compress_templates", "dta_compress_ratio"} {
		if !strings.Contains(text, series) {
			t.Fatalf("metric %s missing from exposition", series)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("dta_ingest_events_total %d", events)) {
		t.Fatalf("dta_ingest_events_total should read %d:\n%s", events, grepLines(text, "dta_ingest"))
	}
	_ = m
}

// grepLines returns the lines of s containing substr (test failure output).
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestHTTPStreamingIngestMalformedTrace(t *testing.T) {
	_, ts, _ := newTestAPI(t, 2)

	body := "SELECT id FROM t WHERE x = 1\nNaN\tSELECT id FROM t WHERE x = 2\n"
	resp, raw := postTrace(t, ts.URL, "database=db", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace: status = %d, want 400", resp.StatusCode)
	}
	var e struct {
		Error   string `json:"error"`
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "line 2") || !strings.Contains(e.Error, "non-finite weight") {
		t.Fatalf("error not line-numbered: %q", e.Error)
	}
	// The failed session is still visible for post-mortem.
	if e.Session == "" {
		t.Fatal("failed session ID missing from error response")
	}
	code, snap := getSnapshot(t, ts.URL+"/sessions/"+e.Session)
	if code != http.StatusOK || snap.State != service.StateFailed {
		t.Fatalf("failed ingest session: code=%d state=%s", code, snap.State)
	}

	// An empty trace also fails cleanly.
	resp2, raw2 := postTrace(t, ts.URL, "database=db", "# only a comment\n")
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw2), "no statements") {
		t.Fatalf("empty trace: status=%d body=%s", resp2.StatusCode, raw2)
	}

	// Bad options JSON — malformed, or naming a field CreateOptions does
	// not have — never creates a session.
	sessions := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/sessions")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list []service.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return len(list)
	}
	before := sessions()
	for opts, want := range map[string]string{"{nope": "bad options", `{"storagMB":8}`: "storagMB"} {
		resp, raw := postTrace(t, ts.URL, "database=db&options="+url.QueryEscape(opts), traceBody(2))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "bad options") || !strings.Contains(string(raw), want) {
			t.Fatalf("options %s: status=%d body=%s, want 400 naming %q", opts, resp.StatusCode, raw, want)
		}
	}
	if after := sessions(); after != before {
		t.Fatalf("bad options created %d sessions", after-before)
	}
}

func TestCreateStreamingMatchesBatchCreate(t *testing.T) {
	// The same trace through Create (materialized, batch-compressed) and
	// through streaming ingest must produce the same recommendation. Each
	// leg gets a fresh backend: concurrent sessions on one shared server
	// interleave statistics creation with costing, which perturbs cost
	// estimates at the last float digit regardless of ingest path.
	newMgr := func() *service.Manager {
		m := service.NewManager(1)
		if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	const events = 600
	trace := traceBody(events)

	w, err := workload.ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := newMgr().Create(service.Request{Backend: "db", Workload: w,
		Options: core.Options{Features: core.FeatureIndexes, SkipReports: true}})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := newMgr().CreateStreaming(service.Request{Backend: "db",
		Options: core.Options{Features: core.FeatureIndexes, SkipReports: true}}, strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	<-batch.Done()
	<-stream.Done()
	brec, berr := batch.Result()
	srec, serr := stream.Result()
	if berr != nil || serr != nil {
		t.Fatalf("errors: batch=%v stream=%v", berr, serr)
	}
	bs, ss := keyList(brec), keyList(srec)
	if bs != ss {
		t.Fatalf("recommendations differ:\nbatch:  %s\nstream: %s", bs, ss)
	}
	if brec.Improvement != srec.Improvement {
		t.Fatalf("improvement drifted: batch %.6f stream %.6f", brec.Improvement, srec.Improvement)
	}
	if !srec.Compressed || srec.IngestedEvents != events {
		t.Fatalf("stream recommendation: compressed=%v ingested=%d", srec.Compressed, srec.IngestedEvents)
	}
}

func keyList(rec *core.Recommendation) string {
	var out []string
	for _, st := range rec.NewStructures {
		out = append(out, st.Key())
	}
	return strings.Join(out, "\n")
}
