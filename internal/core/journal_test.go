package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/journal"
	"repro/internal/obs"
)

// TestJournalingDeterminism is the observability contract: attaching a
// decision journal must not change the recommendation in any way — same
// structures, costs, stop reason, and exact what-if call count.
func TestJournalingDeterminism(t *testing.T) {
	w := parallelWorkload(t)

	plain, err := Tune(testServer(t), w, Options{})
	if err != nil {
		t.Fatal(err)
	}

	jnl := journal.New("test")
	ctx := journal.WithContext(context.Background(), jnl)
	journaled, err := TuneContext(ctx, testServer(t), w, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := fingerprint(journaled), fingerprint(plain); got != want {
		t.Fatalf("journaling changed the recommendation:\n--- journaled ---\n%s--- plain ---\n%s", got, want)
	}
	if jnl.Len() == 0 {
		t.Fatal("journal stayed empty; the pipeline emitted nothing")
	}
}

// TestJournalCoversDecisionPoints runs a workload that exercises every
// pipeline stage and checks each decision point left events of its kind.
func TestJournalCoversDecisionPoints(t *testing.T) {
	jnl := journal.New("test")
	ctx := journal.WithContext(context.Background(), jnl)
	rec, err := TuneContext(ctx, testServer(t), parallelWorkload(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewStructures) == 0 {
		t.Fatal("nothing recommended; the test exercises nothing")
	}
	for _, k := range []journal.Kind{
		journal.KindPhase, journal.KindQuery, journal.KindCandidate,
		journal.KindStep, journal.KindMerge,
	} {
		if n := len(jnl.Events(k)); n == 0 {
			t.Errorf("no %s events journaled", k)
		}
	}
	// Events must serialize cleanly (no Inf/NaN smuggled into costs).
	for _, e := range jnl.Events() {
		if _, err := json.Marshal(e); err != nil {
			t.Fatalf("event %+v does not marshal: %v", e, err)
		}
	}
}

// explainForRec reconstructs provenance for every recommended structure
// purely from the journal.
func explainForRec(rec *Recommendation, jnl *journal.Journal) *journal.Explanation {
	keys := make([]string, 0, len(rec.NewStructures))
	for _, s := range rec.NewStructures {
		keys = append(keys, s.Key())
	}
	return journal.Explain(jnl.Events(), keys)
}

// requireExplained asserts the acceptance criterion: every recommended
// structure's provenance is reconstructable from the journal alone —
// an admitting enumeration decision and at least one benefiting query.
func requireExplained(t *testing.T, name string, rec *Recommendation, jnl *journal.Journal) {
	t.Helper()
	if len(rec.NewStructures) == 0 {
		t.Fatalf("%s: no structures recommended; acceptance test exercises nothing", name)
	}
	if jnl.Dropped() != 0 {
		t.Fatalf("%s: journal dropped %d events on a normal-size workload", name, jnl.Dropped())
	}
	exp := explainForRec(rec, jnl)
	for _, p := range exp.Structures {
		if p.AdmittedBy == "" {
			t.Errorf("%s: structure %s has no recorded admission", name, p.Structure)
			continue
		}
		if p.AdmittedBy == "greedy-step" {
			if p.Step < 0 || p.CostAfter <= 0 || p.CostAfter >= p.CostBefore {
				t.Errorf("%s: structure %s step admission incoherent: step=%d cost %v -> %v",
					name, p.Structure, p.Step, p.CostBefore, p.CostAfter)
			}
		}
		if len(p.BenefitingQueries) == 0 {
			t.Errorf("%s: structure %s has no benefiting queries", name, p.Structure)
		}
		for _, q := range p.BenefitingQueries {
			if q.SQL == "" {
				t.Errorf("%s: structure %s benefiting query #%d lost its SQL", name, p.Structure, q.Query)
			}
		}
	}
}

// TestExplainTPCH is the paper-workload acceptance test: tune the demo
// TPC-H database and reconstruct every recommended structure's provenance
// from the journal alone.
func TestExplainTPCH(t *testing.T) {
	srv, w, err := demo.Build("tpch", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	jnl := journal.New("tpch")
	ctx := journal.WithContext(context.Background(), jnl)
	rec, err := TuneContext(ctx, srv, w, Options{
		StorageBudget: 3 * srv.Cat.Bytes(),
		BaseConfig:    demo.ConstraintConfig("tpch", srv.Cat),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireExplained(t, "tpch", rec, jnl)
}

// TestExplainSYNT1 repeats the acceptance test on the synthetic SYNT1
// workload (the paper's §7 set-query database).
func TestExplainSYNT1(t *testing.T) {
	srv, w, err := demo.Build("synt1", 0.001)
	if err != nil {
		t.Fatal(err)
	}
	jnl := journal.New("synt1")
	ctx := journal.WithContext(context.Background(), jnl)
	rec, err := TuneContext(ctx, srv, w, Options{
		StorageBudget: 3 * srv.Cat.Bytes(),
		BaseConfig:    demo.ConstraintConfig("synt1", srv.Cat),
		Derive:        testDeriveMode(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireExplained(t, "synt1", rec, jnl)
}

// TestExplainAfterResume verifies the journal's derived-state contract:
// the journal is not checkpointed, but a resumed session deterministically
// replays its decisions, so explain output after resume matches an
// uninterrupted run's.
func TestExplainAfterResume(t *testing.T) {
	w := lookupWorkload(10)

	fullJnl := journal.New("full")
	var first *Checkpoint
	full, err := TuneContext(journal.WithContext(context.Background(), fullJnl),
		testServer(t), w, Options{
			NoCompression:   true,
			CheckpointEvery: 25,
			CheckpointSink: func(ck *Checkpoint) {
				if first == nil {
					first = ck
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint emitted")
	}

	// Round-trip the checkpoint as the service's state files do, then
	// resume on a fresh server with a fresh journal.
	data, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	var restored Checkpoint
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	resJnl := journal.New("resumed")
	resumed, err := TuneContext(journal.WithContext(context.Background(), resJnl),
		testServer(t), w, Options{NoCompression: true, Resume: &restored})
	if err != nil {
		t.Fatal(err)
	}

	fullExp, err := json.Marshal(explainForRec(full, fullJnl).Structures)
	if err != nil {
		t.Fatal(err)
	}
	resExp, err := json.Marshal(explainForRec(resumed, resJnl).Structures)
	if err != nil {
		t.Fatal(err)
	}
	if string(fullExp) != string(resExp) {
		t.Fatalf("explain diverged after resume:\n--- full ---\n%s\n--- resumed ---\n%s", fullExp, resExp)
	}
}

// TestJournalBoundedUnderFlood checks per-session memory stays bounded:
// with a tiny limit the journal never exceeds kinds x limit events even
// though the pipeline emits far more.
func TestJournalBoundedUnderFlood(t *testing.T) {
	jnl := journal.New("bounded")
	jnl.SetLimit(8)
	ctx := journal.WithContext(context.Background(), jnl)
	if _, err := TuneContext(ctx, testServer(t), parallelWorkload(t), Options{}); err != nil {
		t.Fatal(err)
	}
	if max := 8 * len(journal.Kinds()); jnl.Len() > max {
		t.Fatalf("journal holds %d events, limit admits at most %d", jnl.Len(), max)
	}
	if jnl.Dropped() == 0 {
		t.Fatal("flood never overflowed the tiny rings; the bound was not exercised")
	}
}

// TestJournalAndTraceUnderCrossQueryParallelism: candidate selection runs
// every query's search on the worker pool, so a journaled, traced toy TPC-H
// tune must still record the same decision-event sequence at Parallelism 1
// and 4 — each query's events are buffered by the worker and appended in
// event order — and its trace must still nest every query span directly
// under the candidate-selection phase span, and every greedy span under a
// query span or the enumeration phase. Run it under -race: per-query
// searches share the tracker, the evaluator and the journal.
func TestJournalAndTraceUnderCrossQueryParallelism(t *testing.T) {
	decisions := func(jnl *journal.Journal) []string {
		var out []string
		for _, e := range jnl.Events(journal.KindPhase, journal.KindQuery, journal.KindCandidate,
			journal.KindSeed, journal.KindStep, journal.KindMerge, journal.KindDrop, journal.KindStop) {
			out = append(out, fmt.Sprintf("%s q=%d step=%d %s%s %v %s",
				e.Kind, e.Query, e.Step, e.Structure, strings.Join(e.Structures, ","), e.Accepted, e.Phase))
		}
		return out
	}
	var want []string
	for _, par := range []int{1, 4} {
		srv, w, base := toyBackend(t, "tpch")
		jnl := journal.New("tpch")
		tr := obs.NewTrace("tpch")
		ctx := obs.WithTrace(journal.WithContext(context.Background(), jnl), tr)
		if _, err := TuneContext(ctx, srv, w, Options{Features: FeatureAll, BaseConfig: base, Parallelism: par, SkipReports: true}); err != nil {
			t.Fatal(err)
		}
		got := decisions(jnl)
		if par == 1 {
			want = got
			if len(jnl.Events(journal.KindQuery)) != len(w.Events) {
				t.Fatalf("%d query events for %d events", len(jnl.Events(journal.KindQuery)), len(w.Events))
			}
		} else if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("P=%d: decision %d is %q, want %q (of %d vs %d events)", par, i, got[i], want[i], len(got), len(want))
				}
			}
			t.Fatalf("P=%d: %d decision events, want %d", par, len(got), len(want))
		}

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Cat  string         `json:"cat"`
				ID   int64          `json:"id"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		name := map[int64]string{}
		parent := map[int64]int64{}
		for _, e := range doc.TraceEvents {
			name[e.ID] = e.Cat + "/" + e.Name
			if p, ok := e.Args["parentSpan"].(float64); ok {
				parent[e.ID] = int64(p)
			}
		}
		queries := 0
		for id, n := range name {
			switch p := name[parent[id]]; {
			case n == "query/select-candidates":
				queries++
				if p != "phase/candidate-selection" {
					t.Errorf("P=%d: query span parented by %q", par, p)
				}
			case strings.HasPrefix(n, "greedy/"):
				if p != "query/select-candidates" && p != "phase/enumeration" {
					t.Errorf("P=%d: %s span parented by %q", par, n, p)
				}
			}
		}
		if queries != len(w.Events) {
			t.Errorf("P=%d: %d query spans for %d events", par, queries, len(w.Events))
		}
	}
}
