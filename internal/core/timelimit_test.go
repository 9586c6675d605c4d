package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/journal"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// TestTimeLimit verifies time-bound tuning (paper §2.1: "an upper bound on
// the time that DTA is allowed to run"): with a tiny budget the advisor
// still terminates promptly and returns a valid (possibly empty)
// recommendation that is never worse than doing nothing.
func TestTimeLimit(t *testing.T) {
	s := testServer(t)
	var sqls []string
	for i := 0; i < 120; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id, amt FROM t WHERE x = %d AND a = %d", i*3, i%100))
	}
	w := workload.MustNew(sqls...)

	// The budget is a tenth of what the same tuning takes unbounded on a
	// fresh server (statistics creation included), so it runs out however
	// fast the machine or the advisor is.
	start := time.Now()
	if _, err := Tune(testServer(t), w, Options{NoCompression: true}); err != nil {
		t.Fatal(err)
	}
	budget := time.Since(start) / 10

	start = time.Now()
	rec, err := Tune(s, w, Options{TimeLimit: budget, NoCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	// Termination is prompt: the deadline is checked between per-query
	// selections and greedy steps, so allow a generous multiple.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("time-bound tuning took %s", elapsed)
	}
	if rec.Improvement < 0 {
		t.Fatalf("bounded tuning must not recommend a regression: %v", rec.Improvement)
	}
	if err := rec.Config.Validate(s.Cat); err != nil {
		t.Fatal(err)
	}
	if rec.StopReason != StopTimeLimit {
		t.Fatalf("StopReason = %q, want %q", rec.StopReason, StopTimeLimit)
	}

	// An ample budget finds at least as much.
	rec2, err := Tune(s, w, Options{NoCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Improvement < rec.Improvement-1e-9 {
		t.Fatalf("unbounded tuning should not be worse: %.3f vs %.3f", rec2.Improvement, rec.Improvement)
	}
	if rec2.StopReason != "" {
		t.Fatalf("unbounded tuning stopped early: %q", rec2.StopReason)
	}
}

// cancellingTuner wraps a Tuner and cancels a context when the what-if call
// counter reaches limit, simulating a DBA hitting "stop" mid-search.
type cancellingTuner struct {
	Tuner
	calls  atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (c *cancellingTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	if c.calls.Add(1) == c.limit {
		c.cancel()
	}
	return c.Tuner.WhatIfCost(stmt, cfg)
}

// TestCancelMidGreedy verifies the anytime contract under cancellation
// (paper §2.1): cancelling mid-Greedy(m,k) stops the search within one
// what-if call and still returns a valid best-so-far recommendation with
// exact call accounting.
func TestCancelMidGreedy(t *testing.T) {
	s := testServer(t)
	var sqls []string
	for i := 0; i < 120; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id, amt FROM t WHERE x = %d AND a = %d", i*3, i%100))
	}
	w := workload.MustNew(sqls...)

	// Baseline costing alone takes 120 calls; a limit of 200 lands the
	// cancellation inside candidate selection's per-query greedy searches.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ct := &cancellingTuner{Tuner: s, limit: 200, cancel: cancel}
	rec, err := TuneContext(ctx, ct, w, Options{NoCompression: true, SkipReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.StopReason != StopCancelled {
		t.Fatalf("StopReason = %q, want %q", rec.StopReason, StopCancelled)
	}
	// The search stops within one what-if call of the cancellation; only
	// sealing the final configuration's cost may add the odd residual call
	// (it is almost always served from the evaluator cache).
	calls := ct.calls.Load()
	if calls < ct.limit || calls > ct.limit+2 {
		t.Fatalf("cancellation at call %d stopped after %d calls", ct.limit, calls)
	}
	if rec.WhatIfCalls != calls {
		t.Fatalf("recommendation accounts %d calls, tuner saw %d", rec.WhatIfCalls, calls)
	}
	if rec.Improvement < 0 {
		t.Fatalf("partial recommendation worse than base: %v", rec.Improvement)
	}
	if err := rec.Config.Validate(s.Cat); err != nil {
		t.Fatalf("partial recommendation invalid: %v", err)
	}

	// Cancellation before baseline costing completes is the one case with
	// no meaningful partial result: an error, not a recommendation.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := TuneContext(done, s, w, Options{NoCompression: true}); err == nil {
		t.Fatal("expected an error when cancelled before baseline costing")
	}
}

// TestCancelMidCandidateSelectionParallel cancels a session while its
// per-query searches run concurrently on four workers. The session must
// return promptly with a cancelled best-so-far recommendation built only
// from queries whose selection completed: the journaled queries form a
// prefix of the workload, and every recommended structure was chosen by
// one of them.
func TestCancelMidCandidateSelectionParallel(t *testing.T) {
	w := lookupWorkload(120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Baseline costing takes 120 calls; the cancellation lands inside
	// candidate selection.
	ct := &cancellingTuner{Tuner: testServer(t), limit: 300, cancel: cancel}
	jnl := journal.New("cancel")
	done := make(chan struct{})
	var rec *Recommendation
	var err error
	go func() {
		defer close(done)
		rec, err = TuneContext(journal.WithContext(ctx, jnl), ct, w, Options{NoCompression: true, Parallelism: 4, SkipReports: true})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled session did not return (deadlock?)")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec.StopReason != StopCancelled {
		t.Fatalf("StopReason = %q, want %q", rec.StopReason, StopCancelled)
	}
	queries := jnl.Events(journal.KindQuery)
	if len(queries) == 0 || len(queries) >= w.Len() {
		t.Fatalf("%d of %d queries completed; the cancellation missed candidate selection", len(queries), w.Len())
	}
	chosen := map[string]bool{}
	for i, e := range queries {
		if e.Query != i {
			t.Fatalf("completed queries are not a workload prefix: journal entry %d is query %d", i, e.Query)
		}
	}
	for _, e := range jnl.Events(journal.KindCandidate) {
		if e.Accepted {
			chosen[e.Structure] = true
		}
	}
	for _, s := range rec.NewStructures {
		if !chosen[s.Key()] {
			t.Errorf("recommended %s, which no completed query chose", s.Key())
		}
	}
	if rec.Improvement < 0 {
		t.Fatalf("partial recommendation worse than base: %v", rec.Improvement)
	}
}
