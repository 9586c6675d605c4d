package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/service"
)

// Daemon test trace chunks over the small test server's tables. chunkBase
// holds two templates at a 2:1 weight ratio; streaming more of it keeps the
// template distribution bit-identical (uniform scaling), so stable epochs
// score drift 0. chunkReweight shifts weight between the same two templates
// (revise-path drift); chunkNew introduces a third template (fresh-path
// drift, the retained pool no longer covers the workload).
func chunkBase(events, offset int) string {
	var b strings.Builder
	for i := offset; i < offset+events; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "2\t0.5\tSELECT id FROM t WHERE x = %d\n", (i*37)%2000)
		} else {
			fmt.Fprintf(&b, "SELECT SUM(amt) FROM t WHERE a = %d\n", i%100)
		}
	}
	return b.String()
}

func chunkReweight(events, offset int) string {
	var b strings.Builder
	for i := offset; i < offset+events; i++ {
		fmt.Fprintf(&b, "SELECT SUM(amt) FROM t WHERE a = %d\n", i%100)
	}
	return b.String()
}

func chunkNew(events, offset int) string {
	var b strings.Builder
	for i := offset; i < offset+events; i++ {
		fmt.Fprintf(&b, "SELECT a, COUNT(*) FROM t WHERE x < %d GROUP BY a\n", 5+i%40)
	}
	return b.String()
}

// newDaemonManager builds a manager over the small test server with one
// backend named db.
func newDaemonManager(t *testing.T) *service.Manager {
	t.Helper()
	m := service.NewManager(2)
	if err := m.Register(&service.Backend{Name: "db", Tuner: smallServer(t)}); err != nil {
		t.Fatal(err)
	}
	return m
}

func daemonOpts() service.CreateOptions {
	return service.CreateOptions{Features: "IDX", Parallelism: 1}
}

func ingest(t *testing.T, m *service.Manager, id, chunk string) *service.EpochResult {
	t.Helper()
	res, err := m.IngestTrace(context.Background(), id, strings.NewReader(chunk))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return res
}

// TestDaemonDriftTriggers drives one daemon through the canonical epoch
// sequence: initial tune, two stable epochs with zero re-tunes, a reweight
// epoch answered through the revise path, and a new-template epoch answered
// through a fresh costing pass.
func TestDaemonDriftTriggers(t *testing.T) {
	m := newDaemonManager(t)
	d, err := m.CreateDaemon(service.DaemonRequest{
		Database: "db",
		Options:  daemonOpts(),
		Drift:    service.DaemonDriftOptions{Threshold: 0.15},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: the first chunk always tunes, at maximal score.
	res := ingest(t, m, d.ID(), chunkBase(400, 0))
	if !res.Retuned || res.Trigger != service.TriggerInitial {
		t.Fatalf("epoch 1: retuned=%v trigger=%q, want initial re-tune", res.Retuned, res.Trigger)
	}
	if res.Score != 1 {
		t.Fatalf("epoch 1 score = %v, want 1 (no prior distribution)", res.Score)
	}
	if res.Delta == nil || len(res.Delta.Create) == 0 {
		t.Fatalf("epoch 1 emitted no creating delta: %+v", res.Delta)
	}
	if res.Delta.Seq != 1 || len(res.Delta.Drop) != 0 {
		t.Fatalf("epoch 1 delta = %+v, want seq 1 with no drops", res.Delta)
	}

	// Epochs 2-3: same template mix — bit-exact zero drift, no re-tune.
	for i, off := range []int{400, 600} {
		res = ingest(t, m, d.ID(), chunkBase(200, off))
		if res.Retuned {
			t.Fatalf("stable epoch %d re-tuned (score %v)", i+2, res.Score)
		}
		if res.Score != 0 {
			t.Fatalf("stable epoch %d score = %v, want exactly 0", i+2, res.Score)
		}
	}

	// Epoch 4: weight shifts between known templates — drift over the
	// threshold, answered from the retained pool.
	res = ingest(t, m, d.ID(), chunkReweight(400, 800))
	if !res.Retuned || res.Trigger != service.TriggerDrift {
		t.Fatalf("reweight epoch: retuned=%v trigger=%q, want drift re-tune", res.Retuned, res.Trigger)
	}
	if res.Path != service.PathRevise {
		t.Fatalf("reweight epoch path = %q, want %q (pool still covers every template)", res.Path, service.PathRevise)
	}
	if res.Score < 0.15 {
		t.Fatalf("reweight epoch score = %v, want ≥ threshold", res.Score)
	}

	// Epoch 5: a template the pool has never costed — fresh pass.
	res = ingest(t, m, d.ID(), chunkNew(600, 1200))
	if !res.Retuned || res.Trigger != service.TriggerDrift {
		t.Fatalf("new-template epoch: retuned=%v trigger=%q, want drift re-tune", res.Retuned, res.Trigger)
	}
	if res.Path != service.PathFresh {
		t.Fatalf("new-template epoch path = %q, want %q", res.Path, service.PathFresh)
	}

	snap := d.Snapshot()
	if snap.Retunes[service.TriggerInitial] != 1 || snap.Retunes[service.TriggerDrift] != 2 {
		t.Fatalf("retune counts = %v, want initial:1 drift:2", snap.Retunes)
	}
	if snap.Epochs != 5 || snap.Deltas != 3 {
		t.Fatalf("epochs=%d deltas=%d, want 5 and 3", snap.Epochs, snap.Deltas)
	}
	mm := m.Metrics()
	if mm.DaemonsCreated != 1 || mm.DaemonRetunes != 3 || mm.DeltasEmitted != 3 {
		t.Fatalf("manager metrics = %+v, want 1 daemon, 3 retunes, 3 deltas", mm)
	}
}

// TestDaemonFeedback pins and vetoes structures and checks both survive
// subsequent re-tunes: an accepted structure never churns again, a vetoed
// one is dropped and never re-proposed.
func TestDaemonFeedback(t *testing.T) {
	m := newDaemonManager(t)
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	res := ingest(t, m, d.ID(), chunkBase(400, 0))
	if res.Delta == nil || len(res.Delta.Create) < 2 {
		t.Fatalf("need ≥ 2 proposed structures, got %+v", res.Delta)
	}
	pin := res.Delta.Create[0].Key
	ban := res.Delta.Create[1].Key

	// Unresolvable keys fail whole, before anything is applied.
	if _, err := m.Feedback(context.Background(), d.ID(), service.FeedbackRequest{Accept: []string{"IDX(nope)"}}); err == nil {
		t.Fatal("unresolvable accept key did not error")
	}

	fb, err := m.Feedback(context.Background(), d.ID(), service.FeedbackRequest{
		Accept: []string{pin},
		Veto:   []string{ban},
		Retune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb.Delta == nil || fb.Delta.Trigger != service.TriggerFeedback {
		t.Fatalf("forced re-tune delta = %+v, want trigger feedback", fb.Delta)
	}
	for _, e := range append(fb.Delta.Create, fb.Delta.Drop...) {
		if e.Key == pin {
			t.Fatalf("accepted structure %s churned in the feedback delta", pin)
		}
		if strings.HasPrefix(e.DDL, "CREATE ") && e.Key == ban {
			t.Fatalf("vetoed structure %s re-proposed", ban)
		}
	}
	var dropped bool
	for _, e := range fb.Delta.Drop {
		if e.Key == ban {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("vetoed proposed structure %s not dropped: %+v", ban, fb.Delta)
	}
	snap := d.Snapshot()
	if len(snap.Accepted) != 1 || snap.Accepted[0] != pin {
		t.Fatalf("accepted = %v, want [%s]", snap.Accepted, pin)
	}
	if len(snap.Vetoed) != 1 || snap.Vetoed[0] != ban {
		t.Fatalf("vetoed = %v, want [%s]", snap.Vetoed, ban)
	}

	// Veto the accepted structure: it unpins and the next delta drops it.
	fb, err = m.Feedback(context.Background(), d.ID(), service.FeedbackRequest{Veto: []string{pin}, Retune: true})
	if err != nil {
		t.Fatal(err)
	}
	dropped = false
	for _, e := range fb.Delta.Drop {
		if e.Key == pin {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("vetoing accepted %s did not drop it: %+v", pin, fb.Delta)
	}
	if got := d.Snapshot().Accepted; len(got) != 0 {
		t.Fatalf("accepted after veto = %v, want empty", got)
	}

	// Later drift re-tunes keep honoring both vetoes.
	res = ingest(t, m, d.ID(), chunkReweight(600, 400))
	if !res.Retuned {
		t.Fatalf("reweight after feedback did not re-tune (score %v)", res.Score)
	}
	for _, e := range res.Delta.Create {
		if e.Key == pin || e.Key == ban {
			t.Fatalf("vetoed structure %s re-proposed after drift re-tune", e.Key)
		}
	}
}

// daemonScenario feeds one fixed chunk sequence plus a feedback step to a
// daemon and returns the daemon's full delta history as canonical JSON.
// Every determinism test compares these bytes.
func daemonScenario(t *testing.T, m *service.Manager, id string, from int) []byte {
	t.Helper()
	steps := []string{
		chunkBase(400, 0),
		chunkBase(200, 400),
		chunkReweight(400, 600),
		chunkNew(500, 1000),
	}
	for i := from; i < len(steps); i++ {
		if _, err := m.IngestTrace(context.Background(), id, strings.NewReader(steps[i])); err != nil {
			t.Fatalf("scenario step %d: %v", i, err)
		}
		if i == 0 {
			d, _ := m.GetDaemon(id)
			key := d.Snapshot().Proposed[0].Key
			if _, err := m.Feedback(context.Background(), id, service.FeedbackRequest{Accept: []string{key}}); err != nil {
				t.Fatalf("scenario feedback: %v", err)
			}
		}
	}
	d, ok := m.GetDaemon(id)
	if !ok {
		t.Fatalf("daemon %s vanished", id)
	}
	data, err := json.Marshal(d.Deltas(0))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonDeterminismAcrossParallelism runs the identical trace stream
// and feedback sequence at parallelism 1 and 4 and requires byte-identical
// delta sequences.
func TestDaemonDeterminismAcrossParallelism(t *testing.T) {
	var got [][]byte
	for _, par := range []int{1, 4} {
		m := newDaemonManager(t)
		opts := daemonOpts()
		opts.Parallelism = par
		d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, daemonScenario(t, m, d.ID(), 0))
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("delta sequences differ across parallelism:\n%s\nvs\n%s", got[0], got[1])
	}
}

// TestDaemonRestartResume kills the manager mid-scenario, resumes the
// daemon from the state directory in a fresh manager, finishes the
// scenario, and requires the delta sequence to be byte-identical with an
// uninterrupted parallelism-1 run — including the post-restart re-tune
// taking the revise path from the reloaded pool. The restarted daemon runs
// at parallelism 1 and, in a second leg, at 4: restart and parallelism
// together must still not move a byte.
func TestDaemonRestartResume(t *testing.T) {
	// Uninterrupted reference run (no state dir).
	m := newDaemonManager(t)
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	reference := daemonScenario(t, m, d.ID(), 0)

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
			opts := daemonOpts()
			opts.Parallelism = par
			if restarted := restartScenario(t, opts); !bytes.Equal(restarted, reference) {
				t.Fatalf("restart changed the delta sequence:\n%s\nvs\n%s", restarted, reference)
			}
		})
	}
}

// restartScenario runs daemonScenario with a crash after the stable epoch:
// the daemon is created with opts in a manager with a state directory, the
// manager is dropped, and the daemon is resumed in a fresh one. It returns
// the resumed daemon's delta history as canonical JSON.
func restartScenario(t *testing.T, opts service.CreateOptions) []byte {
	t.Helper()
	dir := t.TempDir()

	m1 := newDaemonManager(t)
	if err := m1.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	d1, err := m1.CreateDaemon(service.DaemonRequest{Database: "db", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	// Steps 0-1 (initial tune + feedback + one stable epoch), then "crash".
	steps := []string{chunkBase(400, 0), chunkBase(200, 400)}
	for i, c := range steps {
		if _, err := m1.IngestTrace(context.Background(), d1.ID(), strings.NewReader(c)); err != nil {
			t.Fatalf("pre-crash step %d: %v", i, err)
		}
		if i == 0 {
			key := d1.Snapshot().Proposed[0].Key
			if _, err := m1.Feedback(context.Background(), d1.ID(), service.FeedbackRequest{Accept: []string{key}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	m2 := newDaemonManager(t)
	if err := m2.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.ResumeDaemons()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID() != d1.ID() {
		t.Fatalf("resumed %d daemons, want exactly %s", len(resumed), d1.ID())
	}
	d2 := resumed[0]
	if got, want := d2.Snapshot(), d1.Snapshot(); got.Epochs != want.Epochs ||
		got.Events != want.Events || got.DriftScore != want.DriftScore ||
		len(got.Accepted) != len(want.Accepted) || got.PoolFingerprint != want.PoolFingerprint {
		t.Fatalf("resumed snapshot diverged:\n%+v\nvs\n%+v", got, want)
	}

	// The reweight epoch right after restart must still take the revise
	// path: the pool came back from disk.
	res, err := m2.IngestTrace(context.Background(), d2.ID(), strings.NewReader(chunkReweight(400, 600)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Retuned || res.Path != service.PathRevise {
		t.Fatalf("post-restart reweight: retuned=%v path=%q, want revise re-tune", res.Retuned, res.Path)
	}
	if _, err := m2.IngestTrace(context.Background(), d2.ID(), strings.NewReader(chunkNew(500, 1000))); err != nil {
		t.Fatal(err)
	}
	restarted, err := json.Marshal(d2.Deltas(0))
	if err != nil {
		t.Fatal(err)
	}
	return restarted
}

// TestDaemonResumeRefusesTamperedPool flips one digit of a costed query
// gain in a daemon's retained pool file, leaving its stamped fingerprint — the value the daemon
// state cross-checks — intact. The restarted daemon must recompute the
// content address, refuse the pool with a logged reason, and answer its next
// drift epoch through the fresh path instead of revising against the
// corrupted costs.
func TestDaemonResumeRefusesTamperedPool(t *testing.T) {
	dir := t.TempDir()
	m1 := newDaemonManager(t)
	if err := m1.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := m1.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, m1, d.ID(), chunkBase(400, 0))

	path := filepath.Join(dir, d.ID()+".pool.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cost := bytes.Index(data, []byte(`"baseCost":`))
	if cost < 0 {
		t.Fatalf("no query-gain cost found in the pool file:\n%.400s", data)
	}
	digit := cost + len(`"baseCost":`)
	if data[digit] == '1' {
		data[digit] = '2'
	} else {
		data[digit] = '1'
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	m2 := newDaemonManager(t)
	m2.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
	if err := m2.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	resumed, err := m2.ResumeDaemons()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].Snapshot().PoolFingerprint != "" {
		t.Fatalf("resumed %d daemons, want one without its tampered pool", len(resumed))
	}
	if !strings.Contains(logs.String(), "pool refused") || !strings.Contains(logs.String(), "fingerprint mismatch") {
		t.Fatalf("the pool rejection was not logged:\n%s", logs.String())
	}
	res := ingest(t, m2, d.ID(), chunkReweight(400, 400))
	if !res.Retuned || res.Path != service.PathFresh {
		t.Fatalf("post-resume reweight: retuned=%v path=%q, want a fresh re-tune", res.Retuned, res.Path)
	}
}

// TestDaemonHTTP exercises the whole daemon surface over HTTP: create,
// trace epochs, delta listing with ?since, feedback, the event stream,
// explain, and close.
func TestDaemonHTTP(t *testing.T) {
	m := newDaemonManager(t)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	resp, err := http.Post(ts.URL+"/daemons", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var snap service.DaemonSnapshot
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /daemons = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Threshold != service.DefaultDriftThreshold {
		t.Fatalf("default threshold = %v, want %v", snap.Threshold, service.DefaultDriftThreshold)
	}
	base := ts.URL + "/daemons/" + snap.ID

	post := func(path, ctype, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Two epochs: initial tune, then a bit-stable chunk.
	code, raw := post("/trace", "text/plain", chunkBase(400, 0))
	if code != http.StatusOK {
		t.Fatalf("POST trace = %d: %s", code, raw)
	}
	var epoch service.EpochResult
	if err := json.Unmarshal(raw, &epoch); err != nil {
		t.Fatal(err)
	}
	if !epoch.Retuned || epoch.Delta == nil {
		t.Fatalf("first epoch did not tune: %s", raw)
	}
	code, raw = post("/trace", "text/plain", chunkBase(200, 400))
	if code != http.StatusOK {
		t.Fatalf("POST trace 2 = %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &epoch); err != nil {
		t.Fatal(err)
	}
	if epoch.Retuned || epoch.Score != 0 {
		t.Fatalf("stable epoch retuned=%v score=%v, want no re-tune at score 0", epoch.Retuned, epoch.Score)
	}

	// Delta listing, then ?since past the only delta.
	gresp, err := http.Get(base + "/delta")
	if err != nil {
		t.Fatal(err)
	}
	var deltas struct {
		Daemon string          `json:"daemon"`
		Deltas []service.Delta `json:"deltas"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&deltas); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if len(deltas.Deltas) != 1 || deltas.Deltas[0].Trigger != service.TriggerInitial {
		t.Fatalf("GET delta = %+v, want one initial delta", deltas)
	}
	gresp, err = http.Get(base + "/delta?since=1")
	if err != nil {
		t.Fatal(err)
	}
	deltas.Deltas = nil
	json.NewDecoder(gresp.Body).Decode(&deltas)
	gresp.Body.Close()
	if len(deltas.Deltas) != 0 {
		t.Fatalf("GET delta?since=1 returned %d deltas, want 0", len(deltas.Deltas))
	}

	// Feedback over HTTP: accept the first proposed structure and force a
	// re-tune.
	d, _ := m.GetDaemon(snap.ID)
	key := d.Snapshot().Proposed[0].Key
	fb, _ := json.Marshal(service.FeedbackRequest{Accept: []string{key}, Retune: true})
	code, raw = post("/feedback", "application/json", string(fb))
	if code != http.StatusOK {
		t.Fatalf("POST feedback = %d: %s", code, raw)
	}
	var fres service.FeedbackResult
	if err := json.Unmarshal(raw, &fres); err != nil {
		t.Fatal(err)
	}
	if len(fres.Accepted) != 1 || fres.Delta == nil || fres.Delta.Trigger != service.TriggerFeedback {
		t.Fatalf("feedback result = %s", raw)
	}
	if code, raw = post("/feedback", "application/json", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty feedback = %d: %s", code, raw)
	}

	// Feedback failures are classified by a typed error, not by their text:
	// an unresolvable key is the request's fault (400), a forced re-tune with
	// nothing ingested yet conflicts with the daemon's state (409, like
	// explain before the first delta), and only a re-tune that ran and
	// failed is a server fault (500).
	if code, raw = post("/feedback", "application/json", `{"accept":["IDX(nope)"]}`); code != http.StatusBadRequest {
		t.Fatalf("feedback with an unresolvable key = %d: %s", code, raw)
	}
	broken := daemonOpts()
	broken.FaultSpec = "seed=1;whatif:error:1" // every what-if call fails
	body, _ = json.Marshal(service.DaemonRequest{Database: "db", Options: broken})
	resp, err = http.Post(ts.URL+"/daemons", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var idle service.DaemonSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&idle); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /daemons (broken) = %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	postTo := func(path, ctype, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/daemons/"+idle.ID+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	if code, raw = postTo("/feedback", "application/json", `{"retune":true}`); code != http.StatusConflict {
		t.Fatalf("forced re-tune before any trace = %d: %s, want 409", code, raw)
	}
	if code, raw = postTo("/trace", "text/plain", chunkBase(1, 0)); code != http.StatusInternalServerError {
		t.Fatalf("trace whose re-tune fails = %d: %s, want 500", code, raw)
	}
	if code, raw = postTo("/feedback", "application/json", `{"retune":true}`); code != http.StatusInternalServerError {
		t.Fatalf("forced re-tune that fails = %d: %s, want 500", code, raw)
	}

	// Event stream: history replays ingest, drift, delta, and feedback.
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	req, _ := http.NewRequestWithContext(sctx, "GET", base+"/events", nil)
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	kinds := map[string]bool{}
	sc := bufio.NewScanner(eresp.Body)
	for len(kinds) < 4 && sc.Scan() {
		var ev service.DaemonEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"ingest", "drift", "delta", "feedback"} {
		if !kinds[k] {
			t.Fatalf("event stream missing kind %q (saw %v)", k, kinds)
		}
	}
	scancel()

	// Explain names the latest delta and its trigger.
	gresp, err = http.Get(base + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Daemon    string         `json:"daemon"`
		LastDelta *service.Delta `json:"lastDelta"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if exp.Daemon != snap.ID || exp.LastDelta == nil || exp.LastDelta.Trigger != service.TriggerFeedback {
		t.Fatalf("GET explain = %+v", exp)
	}

	// Close: the daemon refuses further trace.
	dreq, _ := http.NewRequest("DELETE", base, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE daemon = %d", dresp.StatusCode)
	}
	if code, raw = post("/trace", "text/plain", chunkBase(10, 0)); code != http.StatusBadRequest {
		t.Fatalf("trace after close = %d: %s", code, raw)
	}
}

// TestDaemonEmptyTrace rejects a first chunk with no statements and
// tolerates an empty later chunk as a no-op epoch.
func TestDaemonEmptyTrace(t *testing.T) {
	m := newDaemonManager(t)
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestTrace(context.Background(), d.ID(), strings.NewReader("")); err == nil {
		t.Fatal("empty first chunk accepted")
	}
	ingest(t, m, d.ID(), chunkBase(400, 0))
	res := ingest(t, m, d.ID(), "")
	if res.Retuned || res.ChunkEvents != 0 || res.Score != 0 {
		t.Fatalf("empty later chunk = %+v, want score-0 no-op epoch", res)
	}
}

// TestDaemonPoolDistributionWithoutReparse: the distribution a daemon keeps
// for its retained pool — taken from the tuned snapshot on the fresh path,
// kept on the revise path — equals the one its pool's statements parse to,
// after a fresh epoch, a revise epoch and a second fresh epoch.
func TestDaemonPoolDistributionWithoutReparse(t *testing.T) {
	m := newDaemonManager(t)
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		chunk string
		path  string
	}{
		{chunkBase(400, 0), service.PathFresh},
		{chunkReweight(400, 400), service.PathRevise},
		{chunkNew(2000, 800), service.PathFresh},
	} {
		if res := ingest(t, m, d.ID(), c.chunk); !res.Retuned || res.Path != c.path {
			t.Fatalf("epoch %d: %+v, want a %s re-tune", i, res, c.path)
		}
		held, parsed := d.PoolDistributions()
		if len(parsed) == 0 || !reflect.DeepEqual(held, parsed) {
			t.Fatalf("epoch %d (%s): pool distribution %v, its statements parse to %v", i, c.path, held, parsed)
		}
	}
}

// TestDaemonKeepsUnchangedPoolFile: a revise-path re-tune that fetches no
// skeleton hands the daemon back the pool it already retains, so the pool
// file on disk is neither rewritten nor replaced; a re-tune that seals a new
// pool replaces it. Reweighting is answered from the pool's facts, so every
// reweight epoch — and a forced re-tune vetoing the whole proposal, whose
// search meets no structure the facts do not name — keeps the file; new
// templates take the fresh path, which seals a new pool.
func TestDaemonKeepsUnchangedPoolFile(t *testing.T) {
	dir := t.TempDir()
	m := newDaemonManager(t)
	if err := m.SetStateDir(dir); err != nil {
		t.Fatal(err)
	}
	d, err := m.CreateDaemon(service.DaemonRequest{Database: "db", Options: daemonOpts()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, d.ID()+".pool.json")
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	ingest(t, m, d.ID(), chunkBase(400, 0))
	prev, fp := stat(), d.Snapshot().PoolFingerprint
	// check asserts whether the last re-tune kept the pool file.
	check := func(what string, wantKept bool) {
		t.Helper()
		cur, curFP := stat(), d.Snapshot().PoolFingerprint
		same := os.SameFile(prev, cur) && cur.ModTime().Equal(prev.ModTime())
		if same != (curFP == fp) || same != wantKept {
			t.Fatalf("%s: pool %s → %s, file kept: %v, want %v", what, fp, curFP, same, wantKept)
		}
		prev, fp = cur, curFP
	}
	// Reweight, back, and reweight again.
	for i, c := range []string{chunkReweight(400, 400), chunkBase(2000, 800), chunkReweight(4000, 2800)} {
		res := ingest(t, m, d.ID(), c)
		if !res.Retuned || res.Path != service.PathRevise || res.Delta.WhatIfCalls != 0 {
			t.Fatalf("epoch %d: %+v, want a revise re-tune without calls", i, res)
		}
		check(fmt.Sprintf("epoch %d", i), true)
	}
	var veto []string
	for _, e := range d.Snapshot().Proposed {
		veto = append(veto, e.Key)
	}
	fb, err := m.Feedback(context.Background(), d.ID(), service.FeedbackRequest{Veto: veto, Retune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(veto) == 0 || fb.Delta == nil || fb.Delta.Path != service.PathRevise || fb.Delta.WhatIfCalls != 0 {
		t.Fatalf("vetoing %v: delta %+v, want a revise re-tune without calls", veto, fb.Delta)
	}
	check("veto", true)
	if res := ingest(t, m, d.ID(), chunkNew(2000, 6800)); !res.Retuned || res.Path != service.PathFresh {
		t.Fatalf("new templates: %+v, want a fresh re-tune", res)
	}
	check("new templates", false)
}
