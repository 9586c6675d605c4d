package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestWorkerPoolEachCoversAllIndices(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 3, 100} {
			p := newWorkerPool(par)
			var visited sync.Map
			var count atomic.Int64
			workers := p.each(n, func(i int) {
				if _, dup := visited.LoadOrStore(i, true); dup {
					t.Errorf("par=%d n=%d: index %d ran twice", par, n, i)
				}
				count.Add(1)
			})
			if got := int(count.Load()); got != n {
				t.Fatalf("par=%d n=%d: ran %d indices", par, n, got)
			}
			if n > 0 && workers < 1 {
				t.Fatalf("par=%d n=%d: workers=%d", par, n, workers)
			}
			if max := p.size; workers > max {
				t.Fatalf("par=%d n=%d: workers=%d exceeds pool size %d", par, n, workers, max)
			}
		}
	}
}

func TestWorkerPoolSizeOneIsSequential(t *testing.T) {
	p := newWorkerPool(0) // clamped to the calling goroutine alone
	order := []int{}
	if w := p.each(4, func(i int) { order = append(order, i) }); w != 1 {
		t.Fatalf("size-1 pool workers = %d", w)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("size-1 pool order = %v", order)
	}
}

// TestWorkerPoolNestedNoDeadlock drives nested each calls far beyond the
// pool size: inner levels must degrade to inline execution instead of
// waiting for tokens the outer levels hold.
func TestWorkerPoolNestedNoDeadlock(t *testing.T) {
	p := newWorkerPool(3)
	var leaves atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.each(5, func(i int) {
			p.each(5, func(j int) {
				p.each(5, func(k int) { leaves.Add(1) })
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested each deadlocked")
	}
	if got := leaves.Load(); got != 125 {
		t.Fatalf("leaves = %d, want 125", got)
	}
}

// countingTuner wraps a Tuner, tracking total and concurrent WhatIfCost
// calls; a slow call window widens the race between would-be duplicate
// callers so the single-flight cache is actually exercised.
type countingTuner struct {
	Tuner
	delay      time.Duration
	calls      atomic.Int64
	inFlight   atomic.Int64
	maxSeen    atomic.Int64
	statsCalls atomic.Int64
}

func (c *countingTuner) WhatIfCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	c.calls.Add(1)
	n := c.inFlight.Add(1)
	for {
		m := c.maxSeen.Load()
		if n <= m || c.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	defer c.inFlight.Add(-1)
	return c.Tuner.WhatIfCost(stmt, cfg)
}

func (c *countingTuner) EnsureStatistics(reqs []stats.Request, reduce bool) (int, error) {
	c.statsCalls.Add(1)
	return c.Tuner.EnsureStatistics(reqs, reduce)
}

// parallelWorkload is varied enough to exercise candidate selection,
// merging, and a multi-step enumeration greedy.
func parallelWorkload(tb testing.TB) *workload.Workload {
	tb.Helper()
	w := &workload.Workload{}
	stmts := []string{
		"SELECT id FROM t WHERE x = 42",
		"SELECT a, COUNT(*) FROM t WHERE x < 100 GROUP BY a",
		"SELECT SUM(amt) FROM t WHERE a = 7",
		"SELECT t.id, d.grp FROM t, d WHERE t.d_id = d.d_id AND d.grp = 3",
		"SELECT id FROM t WHERE amt > 900 ORDER BY amt",
		"SELECT d_id, SUM(amt) FROM t GROUP BY d_id",
		"UPDATE t SET amt = 0 WHERE id = 17",
	}
	for i, q := range stmts {
		if err := w.Add(q, float64(1+i%3)); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// fingerprint reduces a recommendation to everything the determinism
// guarantee promises: the chosen structures (in order), the costs, the
// stop reason, and the exact what-if call count.
func fingerprint(rec *Recommendation) string {
	s := fmt.Sprintf("base=%v cost=%v improvement=%v storage=%d stop=%q calls=%d stats=%d\n",
		rec.BaseCost, rec.Cost, rec.Improvement, rec.StorageBytes, rec.StopReason, rec.WhatIfCalls, rec.StatsCreated)
	for _, st := range rec.NewStructures {
		s += "new " + st.Key() + "\n"
	}
	for _, st := range rec.DroppedStructures {
		s += "drop " + st.Key() + "\n"
	}
	for _, r := range rec.Reports {
		s += fmt.Sprintf("report %q before=%v after=%v used=%v\n", r.SQL, r.CostBefore, r.CostAfter, r.UsedStructures)
	}
	return s
}

// TestParallelismDeterminism runs the full advisor at Parallelism 1, 4, and
// 16 and requires identical recommendations: same structures, same costs,
// same StopReason, and — because the cost cache is single-flight — the same
// what-if call count.
func TestParallelismDeterminism(t *testing.T) {
	var prints []string
	for _, par := range []int{1, 4, 16} {
		s := testServer(t)
		rec, err := Tune(s, parallelWorkload(t), Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if rec.StopReason != "" {
			t.Fatalf("parallelism %d: unexpected stop reason %q", par, rec.StopReason)
		}
		prints = append(prints, fingerprint(rec))
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Errorf("recommendation differs between parallelism levels:\n--- parallelism 1 ---\n%s--- other level ---\n%s", prints[0], prints[i])
		}
	}
}

// TestSingleFlightCoalescesDuplicateCosts hammers one evaluator with many
// goroutines asking for the same configurations: the optimizer must see
// exactly one call per distinct (event, relevant-structures) key, however
// many workers race for it.
func TestSingleFlightCoalescesDuplicateCosts(t *testing.T) {
	ct := &countingTuner{Tuner: testServer(t), delay: time.Millisecond}
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT SUM(amt) FROM t WHERE a = 7",
	)
	ev := newEvaluator(ct, w, "", testTracker())
	base := catalog.NewConfiguration()
	withIx := catalog.NewConfiguration()
	withIx.AddIndex(catalog.NewIndex("t", "x"))

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				for _, cfg := range []*catalog.Configuration{base, withIx} {
					if _, err := ev.configCost(cfg); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Distinct keys: 2 events × base, plus the event(s) whose relevant set
	// changes under the index. The exact count matters less than equality
	// with the evaluator's own accounting and the absence of duplicates.
	if got, issued := ct.calls.Load(), ev.tr.calls.Load(); got != issued {
		t.Fatalf("tuner saw %d calls, evaluator accounted %d", got, issued)
	}
	if got := ct.calls.Load(); got > 4 {
		t.Fatalf("expected at most 4 distinct cost keys, optimizer saw %d calls (single-flight broken)", got)
	}
	if ct.maxSeen.Load() < 1 {
		t.Fatal("no call observed")
	}
}

// TestParallelTuneMatchesCallAccounting runs a parallel session against a
// wrapped tuner and checks Recommendation.WhatIfCalls is session-exact:
// equal to the number of calls the tuner actually served.
func TestParallelTuneMatchesCallAccounting(t *testing.T) {
	ct := &countingTuner{Tuner: testServer(t)}
	rec, err := Tune(ct, parallelWorkload(t), Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rec.WhatIfCalls != ct.calls.Load() {
		t.Fatalf("rec.WhatIfCalls = %d, tuner served %d", rec.WhatIfCalls, ct.calls.Load())
	}
	if rec.WhatIfCalls == 0 {
		t.Fatal("no what-if calls issued")
	}
}
