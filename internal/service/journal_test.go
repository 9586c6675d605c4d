package service_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// dmlWorkload mixes SELECTs with an UPDATE, so a derivation-enabled session
// fetches skeletons for both statement kinds.
func dmlWorkload() []workload.Statement {
	return []workload.Statement{
		{SQL: "SELECT id FROM t WHERE x = 42", Weight: 1},
		{SQL: "SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a", Weight: 1},
		{SQL: "SELECT SUM(amt) FROM t WHERE a = 7", Weight: 1},
		{SQL: "UPDATE t SET amt = 0 WHERE id = 17", Weight: 1},
	}
}

// TestJournalEndpoint checks GET /sessions/{id}/journal: NDJSON of typed
// decision events covering the pipeline's decision points, the ?kind=
// filter, and the error paths.
func TestJournalEndpoint(t *testing.T) {
	_, ts, _ := newTestAPI(t, 2)

	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database":   "db",
		"statements": dmlWorkload(),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone {
		t.Fatalf("state %s (error %q)", final.State, final.Error)
	}

	jr, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("journal Content-Type = %q", ct)
	}
	kinds := map[journal.Kind]int{}
	lastSeq := int64(0)
	sc := bufio.NewScanner(jr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e journal.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("journal not sequence-ordered: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		kinds[e.Kind]++
	}
	for _, k := range []journal.Kind{
		journal.KindPhase, journal.KindQuery, journal.KindCandidate, journal.KindStep,
	} {
		if kinds[k] == 0 {
			t.Errorf("journal stream has no %s events (kinds: %v)", k, kinds)
		}
	}

	// ?kind= narrows the stream; an unknown kind is a 400.
	fr, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/journal?kind=phase")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	fsc := bufio.NewScanner(fr.Body)
	for fsc.Scan() {
		var e journal.Event
		if err := json.Unmarshal(fsc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != journal.KindPhase {
			t.Fatalf("?kind=phase leaked a %s event", e.Kind)
		}
	}
	br, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/journal?kind=bogus")
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", br.StatusCode)
	}
	nf, err := http.Get(ts.URL + "/sessions/nope/journal")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", nf.StatusCode)
	}
}

// TestExplainEndpoint checks GET /sessions/{id}/explain reconstructs
// provenance for every recommended structure of a terminal session, and
// that a still-running session gets a 409.
func TestExplainEndpoint(t *testing.T) {
	_, ts, gate := newTestAPI(t, 2)

	// A gated (still running) session: explain must refuse with 409.
	resp, running := postJSON(t, ts.URL+"/sessions", map[string]any{"database": "db-gated", "statements": dmlWorkload()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create gated: %d", resp.StatusCode)
	}
	<-gate.reached
	conflict, err := http.Get(ts.URL + "/sessions/" + running.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict {
		t.Fatalf("explain of a running session: status %d, want 409", conflict.StatusCode)
	}
	close(gate.release)
	waitTerminal(t, ts.URL, running.ID)

	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database":   "db",
		"statements": dmlWorkload(),
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone || final.Result == nil {
		t.Fatalf("state %s, result %v", final.State, final.Result)
	}
	if len(final.Result.Structures) == 0 {
		t.Fatal("no structures recommended; explain test exercises nothing")
	}

	er, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if er.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d", er.StatusCode)
	}
	var exp journal.Explanation
	if err := json.NewDecoder(er.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	if exp.Session != snap.ID {
		t.Errorf("explanation session = %q, want %q", exp.Session, snap.ID)
	}
	if len(exp.Structures) != len(final.Result.Structures) {
		t.Fatalf("explained %d structures, recommendation has %d", len(exp.Structures), len(final.Result.Structures))
	}
	for _, p := range exp.Structures {
		if p.AdmittedBy == "" {
			t.Errorf("structure %s has no recorded admission", p.Structure)
		}
		if len(p.BenefitingQueries) == 0 {
			t.Errorf("structure %s has no benefiting queries", p.Structure)
		}
	}
}

// TestProgressStreamDeriveFields asserts the NDJSON progress stream and the
// terminal snapshot surface the derivation layer's work: derivedEvals and
// the deriveFallbacks atoms by shape (every skeleton fetch counts an "atom";
// the workload's UPDATE derives like its SELECTs, so no "dml" key exists).
func TestProgressStreamDeriveFields(t *testing.T) {
	_, ts, _ := newTestAPI(t, 2)

	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database":   "db",
		"statements": dmlWorkload(),
		"options":    map[string]any{"derive": "on"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone || final.Result == nil {
		t.Fatalf("state %s (error %q)", final.State, final.Error)
	}

	if final.Result.DerivedEvals == 0 {
		t.Error("terminal Result.DerivedEvals = 0 with derive on")
	}
	if fb := final.Result.DeriveFallbacks; fb["atom"] == 0 || fb["dml"] != 0 {
		t.Errorf("terminal Result.DeriveFallbacks = %v, want atom entries and no dml", fb)
	}

	// The event stream's progress lines carry the same fields live.
	er, err := http.Get(ts.URL + "/sessions/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	sawDerived, sawFallbacks := false, false
	sc := bufio.NewScanner(er.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Progress struct {
				DerivedEvals    int64            `json:"derivedEvals"`
				DeriveFallbacks map[string]int64 `json:"deriveFallbacks"`
			} `json:"progress"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Progress.DerivedEvals > 0 {
			sawDerived = true
		}
		if ev.Progress.DeriveFallbacks["atom"] > 0 {
			sawFallbacks = true
		}
	}
	if !sawDerived {
		t.Error("no progress event carried derivedEvals > 0")
	}
	if !sawFallbacks {
		t.Error("no progress event carried an atom deriveFallbacks entry")
	}
}

// decodeTrace fetches a session's Chrome trace export and validates the
// self-time invariants: complete JSON, only closed ("X") span events, every
// span's selfUs in [0, dur], and otherData.selfTimeUs summing to exactly
// the per-span selfUs total.
func decodeTrace(t *testing.T, ts *httptest.Server, id string) (spans int, cats map[string]int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			SelfTimeUs map[string]int64 `json:"selfTimeUs"`
			Spans      int              `json:"spans"`
		} `json:"otherData"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("session %s trace is not valid JSON: %v", id, err)
	}
	if dec.More() {
		t.Fatalf("session %s trace has trailing data after the JSON document", id)
	}

	cats = map[string]int{}
	var perSpanSelf int64
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue // process-name metadata
		}
		if e.Ph != "X" {
			t.Fatalf("span %s/%s exported as ph=%q; a truncated session must still close every span", e.Cat, e.Name, e.Ph)
		}
		cats[e.Cat]++
		self, ok := e.Args["selfUs"].(float64)
		if !ok {
			t.Fatalf("span %s/%s has no selfUs arg: %v", e.Cat, e.Name, e.Args)
		}
		if self < 0 || int64(self) > e.Dur {
			t.Fatalf("span %s/%s selfUs %v outside [0, dur=%d]", e.Cat, e.Name, self, e.Dur)
		}
		perSpanSelf += int64(self)
	}
	var aggSelf int64
	for _, v := range doc.OtherData.SelfTimeUs {
		if v < 0 {
			t.Fatalf("selfTimeUs aggregate negative: %v", doc.OtherData.SelfTimeUs)
		}
		aggSelf += v
	}
	if aggSelf != perSpanSelf {
		t.Fatalf("otherData.selfTimeUs sums to %d, per-span selfUs to %d", aggSelf, perSpanSelf)
	}
	return doc.OtherData.Spans, cats
}

// TestFinishedSessionTraceTrimmed: once a session's job ends, its trace is
// kept at the size of what it holds — no spare span capacity — and still
// exports a complete, self-consistent Chrome trace.
func TestFinishedSessionTraceTrimmed(t *testing.T) {
	m, ts, _ := newTestAPI(t, 2)
	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{"database": "db"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if final := waitTerminal(t, ts.URL, snap.ID); final.State != service.StateDone {
		t.Fatalf("state %s (error %q)", final.State, final.Error)
	}
	var tr *obs.Trace
	for _, s := range m.Sessions() {
		if s.ID() == snap.ID {
			tr = s.Trace()
		}
	}
	if tr == nil {
		t.Fatalf("session %s not listed", snap.ID)
	}
	if tr.SpanCount() == 0 || tr.SpanCap() != tr.SpanCount() {
		t.Fatalf("finished session's trace holds %d spans in room for %d, want no spare room", tr.SpanCount(), tr.SpanCap())
	}
	if spans, cats := decodeTrace(t, ts, snap.ID); spans != tr.SpanCount() || cats["session"] == 0 {
		t.Fatalf("trimmed trace exports %d spans (cats %v), holds %d", spans, cats, tr.SpanCount())
	}
}

// TestTraceExportCancelledSession cancels a session parked mid-search and
// checks its trace export is complete and self-consistent (satellite: trace
// export on abnormal terminations).
func TestTraceExportCancelledSession(t *testing.T) {
	_, ts, gate := newTestAPI(t, 2)

	var stmts []workload.Statement
	for i := 0; i < 20; i++ {
		stmts = append(stmts,
			workload.Statement{SQL: fmt.Sprintf("SELECT id FROM t WHERE x = %d", i*31%2000)},
			workload.Statement{SQL: fmt.Sprintf("SELECT SUM(amt) FROM t WHERE a = %d", i%100)},
		)
	}
	resp, snap := postJSON(t, ts.URL+"/sessions", map[string]any{
		"database":   "db-gated",
		"statements": stmts,
		"options":    map[string]any{"noCompression": true, "skipReports": true},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	<-gate.reached

	// Cancel the parked session, then release the gate so the parked
	// what-if call can unwind.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+snap.ID, nil)
	go func() { close(gate.release) }()
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateCancelled && final.State != service.StateDone {
		t.Fatalf("state %s after cancel", final.State)
	}

	spans, cats := decodeTrace(t, ts, snap.ID)
	if spans == 0 || cats["session"] == 0 {
		t.Fatalf("cancelled session trace incomplete: %d spans, cats %v", spans, cats)
	}
}

// TestTraceExportDegradedSession forces the circuit breaker open with a
// high fault rate and checks the degraded session's trace export holds the
// same invariants.
func TestTraceExportDegradedSession(t *testing.T) {
	m := service.NewManager(2)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t), DefaultWorkload: slowWorkload(t)}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"options":{"faultSpec":%q}}`, "seed=7;whatif:error:0.25")
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts.URL, snap.ID)
	if final.State != service.StateDone {
		t.Fatalf("state %s (error %q)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.StopReason == "" {
		t.Skipf("session survived the fault rate (result %+v); nothing degraded to assert", final.Result)
	}

	spans, cats := decodeTrace(t, ts, snap.ID)
	if spans == 0 || cats["session"] == 0 || cats["whatif"] == 0 {
		t.Fatalf("degraded session trace incomplete: %d spans, cats %v", spans, cats)
	}
}
