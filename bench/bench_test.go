package main

import (
	"math"
	"regexp"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

func smokeConfig(t *testing.T, traced bool) runConfig {
	return runConfig{seed: 1, sc: smokeScale(), traced: traced, outDir: t.TempDir(), par: 2, clients: 2}
}

// TestSmoke runs all four workloads at toy scale, untraced and traced, and
// checks that every workload and metric BENCHMARK.json names is emitted
// under the declared unit, that no op failed, and that no end-to-end metric
// reads zero.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		run, ok := runners[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(smokeConfig(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, f := range res.Failures {
				t.Errorf("%s traced=%v: %s", w.Name, traced, f)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			if err := checkEmitted(spec, res); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q breaks the naming rule", w.Name, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.Name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSpecConsistency holds BENCHMARK.json to the benchmark contract and to
// the harness's own tables: workloads, end-to-end metrics with bounds, and a
// per-layer list that mirrors layerMetrics, each of whose interaction
// predictions names a real end-to-end metric and workload.
func TestSpecConsistency(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	workloads := map[string]bool{}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness order is %v", i, w.Name, workloadNames)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		workloads[w.Name] = true
	}
	if spec.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, op counts are sized for %d", spec.RunSeconds, referenceSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if seen[name] || workloads[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	wantE2E := []string{mSetup, mTuneP50, mSessionsMin, mReviseP50, mIngest, mRetuneRevise, mRetuneFresh,
		mWhatIfCalls, mImprovement, mAllocMBPerOp}
	if len(spec.EndToEnd) != len(wantE2E) {
		t.Fatalf("%d end-to-end metrics, harness reports %d", len(spec.EndToEnd), len(wantE2E))
	}
	e2e := map[string]metricDef{}
	for i, m := range spec.EndToEnd {
		if m.Name != wantE2E[i] {
			t.Errorf("end-to-end metric %d is %q, want %q", i, m.Name, wantE2E[i])
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %q: bad name or unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %q: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		unique(m.Name)
		e2e[m.Name] = m
	}
	setup := e2e[mSetup]
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics has %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, lmDef := range layerMetrics {
		got := spec.PerLayer[i]
		if got.Name != lmDef.Name || got.Unit != lmDef.Unit || got.Better != lmDef.Better || got.Bound != 0 {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, layerMetrics %+v", i, got, lmDef)
		}
		if !nameRE.MatchString(lmDef.Name) || !unitRE.MatchString(lmDef.Unit) {
			t.Errorf("per-layer metric %q: bad name or unit %q", lmDef.Name, lmDef.Unit)
		}
		unique(lmDef.Name)
		if len(lmDef.Moves) == 0 {
			t.Errorf("per-layer metric %q predicts no move", lmDef.Name)
		}
		for _, mv := range lmDef.Moves {
			if _, ok := e2e[mv.Metric]; !ok {
				t.Errorf("per-layer metric %q moves unknown end-to-end metric %q", lmDef.Name, mv.Metric)
			}
			if mv.Workload != allWorkloadsIn && !workloads[mv.Workload] {
				t.Errorf("per-layer metric %q moves it on unknown workload %q", lmDef.Name, mv.Workload)
			}
		}
	}
}

// tunerOnly hides everything but core.Tuner — the mistake a decorator that
// forgot to forward core.AlternativesTuner would make.
type tunerOnly struct{ inner core.Tuner }

func (d tunerOnly) Catalog() *catalog.Catalog { return d.inner.Catalog() }
func (d tunerOnly) WhatIfCallCount() int64    { return d.inner.WhatIfCallCount() }
func (d tunerOnly) WhatIfCost(s sqlparser.Statement, c *catalog.Configuration) (float64, []string, error) {
	return d.inner.WhatIfCost(s, c)
}
func (d tunerOnly) EnsureStatistics(r []stats.Request, reduce bool) (int, error) {
	return d.inner.EnsureStatistics(r, reduce)
}

// TestDecoratorTransparent tunes the same workload through the raw backend
// and through the timing decorator: what-if calls, derived evaluations and
// the recommended structures must be identical. A decorator that dropped
// AlternativesTuner would push derivation onto the lattice-walk path; the
// tunerOnly control shows this test would notice.
func TestDecoratorTransparent(t *testing.T) {
	cfg := smokeConfig(t, true)
	tr := newTracer()
	env, err := setupBatch(synt1Spec, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	if err := env.svc.register("synt1-tuner-only", tunerOnly{env.b.srv}, env.b.base); err != nil {
		t.Fatal(err)
	}
	if _, ok := core.Tuner(env.traced).(core.AlternativesTuner); !ok {
		t.Fatal("tracedTuner does not forward core.AlternativesTuner")
	}

	w := env.variants[1]
	raw := tuneSession(env.svc, env.b.name, w, env.b.coreOptions(1), nil)
	dec := tuneSession(env.svc, env.tracedName(), w, env.b.coreOptions(1), tr)
	ctl := tuneSession(env.svc, "synt1-tuner-only", w, env.b.coreOptions(1), nil)
	for _, o := range []sessionOutcome{raw, dec, ctl} {
		if o.err != nil {
			t.Fatal(o.err)
		}
	}
	if raw.rec.WhatIfCalls != dec.rec.WhatIfCalls || raw.rec.DerivedEvals != dec.rec.DerivedEvals {
		t.Errorf("decorated session: %d calls / %d derived evals, raw session %d / %d",
			dec.rec.WhatIfCalls, dec.rec.DerivedEvals, raw.rec.WhatIfCalls, raw.rec.DerivedEvals)
	}
	if fingerprint(raw.rec) != fingerprint(dec.rec) || raw.rec.Improvement != dec.rec.Improvement {
		t.Errorf("decorated session recommends differently:\n%s--- vs ---\n%s", fingerprint(dec.rec), fingerprint(raw.rec))
	}
	if ctl.rec.WhatIfCalls == raw.rec.WhatIfCalls && ctl.rec.DerivedEvals == raw.rec.DerivedEvals {
		t.Errorf("control without AlternativesTuner matched the raw session (%d calls / %d derived evals): the transparency check has no teeth",
			raw.rec.WhatIfCalls, raw.rec.DerivedEvals)
	}
	var calls int
	for _, s := range tr.snapshot() {
		if s.Op == tr.currentOp() && (s.Name == spanWhatIf || s.Name == spanAlternatives) {
			calls++
		}
	}
	if int64(calls) < dec.rec.WhatIfCalls {
		t.Errorf("decorator recorded %d call spans, session issued %d calls", calls, dec.rec.WhatIfCalls)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 4, Parent: 2, Start: 15, End: 25},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // straddles the parent's end
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 30 - 20 - 10, 2: 20, 3: 30, 4: 10, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Overlap (10) and the straddling tail (20) are what the summed self
	// times exceed the root by.
	if got := closureError(spans, 1); math.Abs(got-0.30) > 1e-12 {
		t.Errorf("closure error %v, want 0.30", got)
	}
}
