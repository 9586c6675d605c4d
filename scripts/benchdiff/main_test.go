package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func write(t *testing.T, dir, name string, recs []experiments.BenchRecord) string {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baselineRecs() []experiments.BenchRecord {
	return []experiments.BenchRecord{
		{Experiment: "parallel", Case: "par=1", WhatIfCalls: 1234, DerivedEvals: 88, ImprovementPct: 41.5},
		{Experiment: "parallel", Case: "par=4", WhatIfCalls: 1234, DerivedEvals: 88, ImprovementPct: 41.5},
		{Experiment: "ingest", Case: "events=2000", Events: 2000, Ratio: 12.5},
	}
}

func TestCleanComparison(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baselineRecs())

	// Same determinism fields, quality off by pure round-off.
	cur := baselineRecs()
	cur[1].ImprovementPct += 1e-12
	cur[2].Ratio += 1e-12
	c := write(t, dir, "cur.json", cur)

	problems, err := Diff(b, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean run reported problems: %v", problems)
	}
}

func TestExactFieldRegressions(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baselineRecs())

	cur := baselineRecs()
	cur[0].WhatIfCalls++         // call-count drift: always a failure
	cur[1].DerivedEvals = 0      // derivation stopped working
	cur[2].Events = 1999         // ingest lost an event
	cur[1].ImprovementPct = 40.0 // real quality regression
	c := write(t, dir, "cur.json", cur)

	problems, err := Diff(b, c)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"whatIfCalls", "derivedEvals", "events", "improvementPct"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems missing a %s report:\n%s", want, joined)
		}
	}
	if len(problems) != 4 {
		t.Errorf("got %d problems, want 4:\n%s", len(problems), joined)
	}
}

func TestMissingAndExtraRecords(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baselineRecs())
	cur := baselineRecs()[:2] // lost the ingest case
	cur = append(cur, experiments.BenchRecord{Experiment: "parallel", Case: "par=8"})
	c := write(t, dir, "cur.json", cur)

	problems, err := Diff(b, c)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if !strings.Contains(joined, "ingest/events=2000: missing") {
		t.Errorf("lost case not reported:\n%s", joined)
	}
	if !strings.Contains(joined, "parallel/par=8: not in baseline") {
		t.Errorf("extra case not reported:\n%s", joined)
	}
}

func TestBadInput(t *testing.T) {
	dir := t.TempDir()
	good := write(t, dir, "base.json", baselineRecs())
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(good, bad); err == nil {
		t.Fatal("malformed current file not rejected")
	}
	if _, err := Diff(filepath.Join(dir, "absent.json"), good); err == nil {
		t.Fatal("missing baseline not rejected")
	}
}
