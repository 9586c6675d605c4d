package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/whatif"
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

// TestCheckpointResume verifies the checkpoint/resume contract over a
// skeleton backend and a plain real-call one, sequentially and at P=4: a
// session resumed from a mid-run checkpoint (round-tripped through JSON, as
// the service persists it) produces the identical recommendation to an
// uninterrupted run. A checkpoint holds skeleton facts alone, so over the
// skeleton backend the resumed session pays no fetch the interrupted run
// had paid before the snapshot except those still in flight when it fired,
// and the pre-statistics costing it re-pays up to its one restore point
// (pre, the calls the uninterrupted run had paid at candidate selection's
// epoch bump; the checkpoint's facts all postdate the statistics). The
// boundary call that fires the snapshot is counted but not yet made, so it
// is always re-paid; each other pool worker leads at most one more; and a
// restored fact may answer a later request whose top it covers, which the
// uninterrupted run fetched. Hence resumed ≤ full − ck + P + pre; the resume
// saves calls whenever ck > pre + P (at P=4 the baseline leg's checkpoint,
// two calls past the bump, may hold no answer yet). Over the real-call
// backend a checkpoint would hold nothing to replay, so none is written, and
// the session resumes cold, paying exactly the uninterrupted run's calls.
// Checkpoints start at the bump, and a boundary whose checkpoint would add
// no fact writes none, so the first one is the first boundary after the
// bump at which a fact is ready — at P=1 the first boundary after it; at
// P=4 every fetch since the bump may still be in flight there — on the
// baseline leg, whose interval is shorter than the pre-statistics costing,
// still in candidate selection. Every checkpoint over the skeleton backend
// carries its skeleton section. The
// uninterrupted run's own call count is pinned too (fullMax: what the
// skeleton engine pays for the workload, and what it pays without
// skeletons, report included), so a rise there cannot hide inside the
// relative band.
func TestCheckpointResume(t *testing.T) {
	skeletons := func(tb testing.TB) Tuner { return testServer(tb) }
	for _, leg := range []struct {
		name     string
		srv      func(testing.TB) Tuner
		every    int
		baseline bool // the interval is shorter than the pre-statistics costing
		fullMax  int64
	}{
		{"skeletons", skeletons, 25, false, 50},
		{"real-call", func(tb testing.TB) Tuner { return realCallTuner{testServer(tb)} }, 25, false, 120},
		{"baseline", skeletons, 3, true, 50},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/P%d", leg.name, par), func(t *testing.T) {
				full, bump, ck, resumed, pre := checkpointResume(t, leg.srv, par, leg.every)
				if full.WhatIfCalls > leg.fullMax {
					t.Fatalf("uninterrupted run paid %d calls, was %d", full.WhatIfCalls, leg.fullMax)
				}
				_, alts := leg.srv(t).(AlternativesTuner)
				if (ck != nil) != alts {
					t.Fatalf("checkpoint emitted: %v; backend offers skeletons: %v", ck != nil, alts)
				}
				if ck == nil {
					if resumed.WhatIfCalls != full.WhatIfCalls {
						t.Fatalf("cold resume paid %d calls, the uninterrupted run %d", resumed.WhatIfCalls, full.WhatIfCalls)
					}
					return
				}
				every := int64(leg.every)
				if first := (bump/every + 1) * every; ck.WhatIfCalls%every != 0 || ck.WhatIfCalls < first || (par == 1 && ck.WhatIfCalls != first) {
					t.Fatalf("first checkpoint at call %d, want a boundary from the first after the epoch bump at %d (%d; exactly it at P=1)", ck.WhatIfCalls, bump, first)
				}
				if ck.Phase == PhaseBaseline || ck.Phase == PhaseColGroups || (leg.baseline && ck.Phase != PhaseCandidates) {
					t.Fatalf("first checkpoint fired in %s", ck.Phase)
				}
				if leg.baseline != (bump > every) {
					t.Fatalf("interval %d against %d pre-statistics calls: the leg tests the wrong case", every, bump)
				}
				if ck.Skeletons == nil {
					t.Fatalf("checkpoint in %s carries no skeletons", ck.Phase)
				}
				if pre != bump {
					t.Fatalf("resumed session paid %d calls before its restore point, the uninterrupted run %d", pre, bump)
				}
				lo, hi := pre, full.WhatIfCalls-ck.WhatIfCalls+int64(par)+pre
				if resumed.WhatIfCalls < lo || resumed.WhatIfCalls > hi {
					t.Fatalf("resumed session paid %d calls, want [%d, %d] (full %d, checkpoint at %d, %d before the restore point)",
						resumed.WhatIfCalls, lo, hi, full.WhatIfCalls, ck.WhatIfCalls, pre)
				}
				t.Logf("full %d, checkpoint at %d, resumed %d (%d before the restore point)", full.WhatIfCalls, ck.WhatIfCalls, resumed.WhatIfCalls, pre)
			})
		}
	}
}

// checkpointResume tunes a workload uninterrupted at the given parallelism,
// checkpointing every `every` calls, resumes a session on a fresh backend
// from its first checkpoint (JSON round-tripped; cold, and first nil, when
// none was emitted), and checks the
// scheduling-independent half of the contract: identical recommendation and
// costs. bump and pre are the calls the uninterrupted and the resumed
// session had paid on entering candidate selection, whose statistics pass
// and epoch bump follow without a what-if call in between.
func checkpointResume(t *testing.T, srv func(testing.TB) Tuner, parallelism, every int) (full *Recommendation, bump int64, first *Checkpoint, resumed *Recommendation, pre int64) {
	t.Helper()
	w := lookupWorkload(10)
	// atBump records the call count of the first candidate-selection
	// snapshot: the one its phase marker emits.
	atBump := func(calls *int64) func(Progress) {
		*calls = -1
		return func(p Progress) {
			if p.Phase == PhaseCandidates && *calls < 0 {
				*calls = p.WhatIfCalls
			}
		}
	}
	// CheckpointEvery counts real optimizer calls; keep it small enough that
	// a checkpoint lands even when derivation (DTA_DERIVE=verify in CI's
	// fault matrix) answers most evaluations without a call.
	full, err := Tune(srv(t), w, Options{
		NoCompression:   true,
		Derive:          testDeriveMode(t),
		Parallelism:     parallelism,
		Progress:        atBump(&bump),
		CheckpointEvery: every,
		CheckpointSink: func(ck *Checkpoint) {
			if first == nil {
				first = ck
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through JSON exactly as the service's state files do;
	// float costs must survive bit-exactly.
	var restored *Checkpoint
	if first != nil {
		data, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &restored); err != nil {
			t.Fatal(err)
		}
	}

	// Resume on a fresh server — the post-crash world: no statistics, cold
	// caches, only the checkpoint file.
	resumed, err = Tune(srv(t), w, Options{NoCompression: true, Resume: restored, Derive: testDeriveMode(t), Parallelism: parallelism, Progress: atBump(&pre)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := structureSet(resumed), structureSet(full); got != want {
		t.Fatalf("resumed recommendation differs:\n%s\nvs\n%s", got, want)
	}
	if resumed.Cost != full.Cost || resumed.BaseCost != full.BaseCost || resumed.Improvement != full.Improvement {
		t.Fatalf("resumed costs differ: %.9f/%.9f vs %.9f/%.9f",
			resumed.BaseCost, resumed.Cost, full.BaseCost, full.Cost)
	}
	return full, bump, restored, resumed, pre
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

// statsFailingTuner fails every statistics-creation call from the failAt-th
// on (1-based), recording each call's request batch.
type statsFailingTuner struct {
	Tuner
	failAt int
	mu     sync.Mutex
	calls  [][]stats.Request
}

func (s *statsFailingTuner) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	s.mu.Lock()
	s.calls = append(s.calls, reqs)
	n := len(s.calls)
	s.mu.Unlock()
	if n >= s.failAt {
		return 0, errors.New("statistics backend unavailable")
	}
	return s.Tuner.EnsureStatistics(reqs, reduce)
}

// TestStatsFailureDegradedLimitsSelection: a statistics failure that
// outlasts its retries during candidate selection degrades the session at
// the failing query, as the sequential loop's break did. Statistics come
// first now, so selection stops creating statistics there, no query from
// the failing one on is searched, and the degraded recommendation is the
// same at every parallelism.
func TestStatsFailureDegradedLimitsSelection(t *testing.T) {
	const failAt = 4 // every lookup has candidates: the 4th batch is event 3's
	var want string
	for _, par := range []int{1, 4} {
		st := &statsFailingTuner{Tuner: testServer(t), failAt: failAt}
		jnl := journal.New("stats")
		rec, err := TuneContext(journal.WithContext(context.Background(), jnl), st, lookupWorkload(12),
			Options{NoCompression: true, Parallelism: par})
		if err != nil {
			t.Fatalf("P=%d: session must degrade, not fail: %v", par, err)
		}
		if rec.StopReason != StopDegraded {
			t.Fatalf("P=%d: StopReason = %q, want %q", par, rec.StopReason, StopDegraded)
		}
		// The failing batch is retried, and no later batch is issued.
		for i := failAt; i < len(st.calls); i++ {
			if !reflect.DeepEqual(st.calls[i], st.calls[failAt-1]) {
				t.Fatalf("P=%d: statistics call %d issued a later query's batch after the failure", par, i+1)
			}
		}
		for _, e := range jnl.Events(journal.KindQuery) {
			if e.Query >= failAt-1 {
				t.Errorf("P=%d: query %d searched at or after the failing one (%d)", par, e.Query, failAt-1)
			}
		}
		if par == 1 {
			want = fingerprint(rec)
		} else if got := fingerprint(rec); got != want {
			t.Errorf("P=%d: degraded recommendation differs from P=1:\n%s\nvs\n%s", par, got, want)
		}
	}
}

// verifySkewTuner perturbs the real cost of every configuration holding an
// index keyed on column a, so in derive=verify mode each derived cost for
// such a configuration fails its cross-check.
type verifySkewTuner struct{ *whatif.Server }

func (v verifySkewTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	c, used, err := v.Server.WhatIfCost(stmt, cfg)
	for _, ix := range cfg.Indexes {
		if ix.KeyColumns[0] == "a" {
			return c + 1, used, err
		}
	}
	return c, used, err
}

// TestSelectionErrorSameAtEveryParallelism: a failure that is an error, not
// a stop — here a derive=verify mismatch, which fails the session — hits
// several queries' searches, some running concurrently at Parallelism 4.
// The session must surface the earliest query's error, as the sequential
// loop did, at every parallelism.
func TestSelectionErrorSameAtEveryParallelism(t *testing.T) {
	var sqls []string
	for i := 0; i < 4; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id FROM t WHERE x = %d", i*37))
	}
	for i := 0; i < 8; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT SUM(amt) FROM t WHERE a = %d", i))
	}
	w := workload.MustNew(sqls...)
	var want string
	for _, par := range []int{1, 4} {
		_, err := Tune(verifySkewTuner{testServer(t)}, w, Options{NoCompression: true, Derive: derive.Verify, Parallelism: par})
		if err == nil {
			t.Fatalf("P=%d: the verify mismatch did not fail the session", par)
		}
		if par == 1 {
			want = err.Error()
			if !strings.Contains(want, "event 4:") {
				t.Fatalf("P=1: error %q is not the first a-query's (event 4)", want)
			}
		} else if err.Error() != want {
			t.Errorf("P=%d: error %q, want %q", par, err, want)
		}
	}
}

// outageTuner fails both what-if endpoints — the skeleton fetch and the
// plain call — while down is set, counting the attempts each one saw during
// the outage.
type outageTuner struct {
	*whatif.Server
	down        atomic.Bool
	alts, plain atomic.Int64
}

func (o *outageTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	if o.down.Load() {
		o.plain.Add(1)
		return 0, nil, errors.New("what-if endpoint down")
	}
	return o.Server.WhatIfCost(stmt, cfg)
}

func (o *outageTuner) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	if o.down.Load() {
		o.alts.Add(1)
		return 0, nil, nil, errors.New("alternatives endpoint down")
	}
	return o.Server.WhatIfAlternativesCost(stmt, cfg)
}

// TestSkeletonFetchFaultRetryBudget: a skeleton fetch that fails every retry
// fails the evaluation, and the evaluator never re-issues it as a plain
// what-if call. In the critical baseline stage the escalated budget of 10
// attempts is the whole load an outage puts on the backend; in the search,
// the session degrades and no plain attempt reaches the backend afterwards.
func TestSkeletonFetchFaultRetryBudget(t *testing.T) {
	fast := fault.Policy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	t.Run("baseline", func(t *testing.T) {
		o := &outageTuner{Server: testServer(t)}
		o.down.Store(true)
		if _, err := Tune(o, lookupWorkload(1), Options{Parallelism: 1, Retry: fast, Derive: testDeriveMode(t)}); err == nil {
			t.Fatal("baseline costing against a dead backend must fail the session")
		}
		if o.alts.Load() != 10 || o.plain.Load() != 0 {
			t.Fatalf("backend saw %d skeleton and %d plain attempts, want 10 and 0", o.alts.Load(), o.plain.Load())
		}
	})
	t.Run("search/P4", func(t *testing.T) {
		o := &outageTuner{Server: testServer(t)}
		rec, err := Tune(o, lookupWorkload(16), Options{
			Parallelism: 4, NoCompression: true, Retry: fast, Derive: testDeriveMode(t),
			Progress: func(p Progress) {
				if p.Phase == PhaseCandidates {
					o.down.Store(true)
				}
			},
		})
		if err != nil {
			t.Fatalf("a search-phase outage must degrade the session, not fail it: %v", err)
		}
		if rec.StopReason != StopDegraded {
			t.Fatalf("StopReason = %q, want %q", rec.StopReason, StopDegraded)
		}
		if o.alts.Load() == 0 {
			t.Fatal("the outage never reached a skeleton fetch; the test exercised nothing")
		}
		if o.plain.Load() != 0 {
			t.Fatalf("backend saw %d plain attempts after %d failed skeleton attempts, want 0", o.plain.Load(), o.alts.Load())
		}
	})
}
