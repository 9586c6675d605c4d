package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/workload"
)

// testDeriveMode returns the Options.Derive mode the robustness suite runs
// under: CI's fault-matrix job pins "verify" in one leg via DTA_DERIVE, so
// every derived cost is cross-checked while faults fire; unset is the
// default (on).
func testDeriveMode(tb testing.TB) derive.Mode {
	tb.Helper()
	m, err := derive.ParseMode(os.Getenv("DTA_DERIVE"))
	if err != nil {
		tb.Fatalf("bad DTA_DERIVE: %v", err)
	}
	return m
}

// lookupWorkload builds n selective lookups with varying literals, enough
// distinct events to keep a session busy through candidate selection.
func lookupWorkload(n int) *workload.Workload {
	var sqls []string
	for i := 0; i < n; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id, amt FROM t WHERE x = %d AND a = %d", i*37%10000, i%100))
	}
	return workload.MustNew(sqls...)
}

// structureSet renders a recommendation's structures for comparison.
func structureSet(rec *Recommendation) string {
	var out []string
	for _, st := range rec.NewStructures {
		out = append(out, st.String())
	}
	return strings.Join(out, "\n")
}

// TestStopReasonTransitions drives one session into each terminal
// StopReason — completed, cancelled, time-limit, degraded — and asserts the
// anytime contract holds in every case: a non-nil recommendation with a
// real baseline cost and no regression, whatever stopped the search.
func TestStopReasonTransitions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (*Recommendation, error)
		want string
	}{
		{
			name: "completed",
			want: "",
			run: func(t *testing.T) (*Recommendation, error) {
				return Tune(testServer(t), lookupWorkload(3), Options{Features: FeatureIndexes, Derive: testDeriveMode(t)})
			},
		},
		{
			name: "cancelled",
			want: StopCancelled,
			run: func(t *testing.T) (*Recommendation, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ct := &cancellingTuner{Tuner: testServer(t), limit: 150, cancel: cancel}
				return TuneContext(ctx, ct, lookupWorkload(40), Options{NoCompression: true, Derive: testDeriveMode(t)})
			},
		},
		{
			name: "time-limit",
			want: StopTimeLimit,
			run: func(t *testing.T) (*Recommendation, error) {
				// Enough events that costing them takes several times the
				// limit even when every evaluation but one per event replays.
				return Tune(testServer(t), lookupWorkload(600), Options{
					NoCompression: true, TimeLimit: 25 * time.Millisecond,
					Derive: testDeriveMode(t),
				})
			},
		},
		{
			name: "degraded",
			want: StopDegraded,
			run: func(t *testing.T) (*Recommendation, error) {
				// A 10% what-if failure rate is transient enough for the
				// escalated critical-stage retries to ride out, but double
				// the breaker's 5% threshold: the session must degrade, not
				// crash and not fail.
				spec, err := fault.ParseSpec("seed=11;whatif:error:0.10")
				if err != nil {
					t.Fatal(err)
				}
				return Tune(testServer(t), lookupWorkload(40), Options{
					NoCompression: true, Faults: fault.NewInjector(spec),
					Derive: testDeriveMode(t),
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := tc.run(t)
			if err != nil {
				t.Fatalf("session must not fail: %v", err)
			}
			if rec == nil {
				t.Fatal("nil recommendation")
			}
			if rec.StopReason != tc.want {
				t.Fatalf("StopReason = %q, want %q", rec.StopReason, tc.want)
			}
			if rec.BaseCost <= 0 {
				t.Fatalf("best-so-far recommendation carries no baseline: %+v", rec)
			}
			if rec.Improvement < 0 {
				t.Fatalf("recommendation regresses: %.3f", rec.Improvement)
			}
			if rec.Config == nil {
				t.Fatal("nil configuration")
			}
		})
	}
}

// TestRetryMasksTransientFaults verifies the retry layer makes a mildly
// flaky backend indistinguishable from a healthy one: at a 2% injected
// failure rate (below the breaker's 5% threshold), the session completes
// without degrading and recommends exactly what a fault-free run does.
func TestRetryMasksTransientFaults(t *testing.T) {
	w := lookupWorkload(8)
	clean, err := Tune(testServer(t), w, Options{NoCompression: true, Derive: testDeriveMode(t)})
	if err != nil {
		t.Fatal(err)
	}

	spec, err := fault.ParseSpec("seed=3;whatif:error:0.02;stats:latency:0.05:100us")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(spec)
	flaky, err := Tune(testServer(t), w, Options{NoCompression: true, Faults: in, Derive: testDeriveMode(t)})
	if err != nil {
		t.Fatalf("retries should have absorbed the faults: %v", err)
	}
	if flaky.StopReason != "" {
		t.Fatalf("session should not degrade at 2%% faults: %q", flaky.StopReason)
	}
	if got, want := structureSet(flaky), structureSet(clean); got != want {
		t.Fatalf("flaky backend changed the recommendation:\n%s\nvs\n%s", got, want)
	}
	if flaky.Cost != clean.Cost || flaky.BaseCost != clean.BaseCost {
		t.Fatalf("costs diverged: %.6f/%.6f vs %.6f/%.6f",
			flaky.BaseCost, flaky.Cost, clean.BaseCost, clean.Cost)
	}
	if counts := in.Counts(); counts["whatif/error"] == 0 {
		t.Fatal("injector never fired; the test exercised nothing")
	}
	// Retries re-issue the failed calls, so the flaky run must report at
	// least as many what-if calls as the clean one.
	if flaky.WhatIfCalls < clean.WhatIfCalls {
		t.Fatalf("retry accounting lost calls: %d < %d", flaky.WhatIfCalls, clean.WhatIfCalls)
	}
}

// TestCheckpointResume verifies the checkpoint/resume contract: a session
// resumed from a mid-run checkpoint (round-tripped through JSON, as the
// service persists it) produces the identical recommendation to an
// uninterrupted run, while issuing fewer optimizer calls. It runs at the
// default parallelism and sequentially; only the sequential leg pins the
// resumed call count, because a checkpoint taken mid-frontier at higher
// parallelism holds whichever entries other workers happened to complete.
func TestCheckpointResume(t *testing.T) {
	full, resumed := checkpointResume(t, 0)
	if full.WhatIfCalls > 50 {
		t.Fatalf("calls grew past the walk-era engine's: full %d (was 50)", full.WhatIfCalls)
	}
	full, resumed = checkpointResume(t, 1)
	// A resumed session holds the checkpoint's costs — each fetched top's
	// own included — but no skeletons, so it pays one fetch per (event,
	// top) it still has a subset of to resolve: what the walk-era engine
	// paid as stale-node repairs. Pinned to the counts of the last commit
	// that had the walk (derive on): 50 uninterrupted, 27 resumed.
	if full.WhatIfCalls > 50 || resumed.WhatIfCalls > 27 {
		t.Fatalf("calls grew past the walk-era engine's: full %d (was 50), resumed %d (was 27)", full.WhatIfCalls, resumed.WhatIfCalls)
	}
}

// checkpointResume tunes a workload uninterrupted at the given parallelism
// (0 = default), resumes a fresh session from its first checkpoint, and
// checks the scheduling-independent half of the contract: identical
// recommendation and costs, fewer optimizer calls.
func checkpointResume(t *testing.T, parallelism int) (full, resumed *Recommendation) {
	t.Helper()
	w := lookupWorkload(10)
	var first *Checkpoint
	snaps := 0
	// CheckpointEvery counts real optimizer calls; keep it small enough that
	// a checkpoint lands even when derivation (DTA_DERIVE=verify in CI's
	// fault matrix) answers most evaluations without a call.
	full, err := Tune(testServer(t), w, Options{
		NoCompression:   true,
		Derive:          testDeriveMode(t),
		Parallelism:     parallelism,
		CheckpointEvery: 25,
		CheckpointSink: func(ck *Checkpoint) {
			snaps++
			if first == nil {
				first = ck
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatalf("no checkpoint emitted over %d what-if calls", full.WhatIfCalls)
	}
	if len(first.Cache) == 0 {
		t.Fatal("checkpoint carries no cached costs")
	}
	t.Logf("checkpoints=%d firstCache=%d fullCalls=%d", snaps, len(first.Cache), full.WhatIfCalls)

	// Round-trip through JSON exactly as the service's state files do;
	// float costs must survive bit-exactly.
	data, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	var restored Checkpoint
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}

	// Resume on a fresh server — the post-crash world: no statistics, cold
	// caches, only the checkpoint file.
	resumed, err = Tune(testServer(t), w, Options{NoCompression: true, Resume: &restored, Derive: testDeriveMode(t), Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := structureSet(resumed), structureSet(full); got != want {
		t.Fatalf("resumed recommendation differs:\n%s\nvs\n%s", got, want)
	}
	if resumed.Cost != full.Cost || resumed.BaseCost != full.BaseCost {
		t.Fatalf("resumed costs differ: %.9f/%.9f vs %.9f/%.9f",
			resumed.BaseCost, resumed.Cost, full.BaseCost, full.Cost)
	}
	if resumed.WhatIfCalls >= full.WhatIfCalls {
		t.Fatalf("resume saved no optimizer calls: %d vs %d", resumed.WhatIfCalls, full.WhatIfCalls)
	}
	return full, resumed
}

// TestDegradedSkipsReports verifies a degraded session behaves like a
// cancelled one at the reporting stage: headline numbers are in place but
// the per-query reports are skipped — the backend already proved flaky and
// each report line would hammer it further.
func TestDegradedSkipsReports(t *testing.T) {
	spec, err := fault.ParseSpec("seed=19;whatif:error:0.10")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Tune(testServer(t), lookupWorkload(40), Options{
		NoCompression: true, Faults: fault.NewInjector(spec),
		Derive: testDeriveMode(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.StopReason != StopDegraded {
		t.Skipf("session did not degrade (StopReason %q); nothing to assert", rec.StopReason)
	}
	if len(rec.Reports) != 0 {
		t.Fatalf("degraded session built %d per-query reports", len(rec.Reports))
	}
}
