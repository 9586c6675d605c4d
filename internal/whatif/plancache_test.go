package whatif

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// hookStats is the server's statistics store seen through a hook that runs
// on every histogram lookup — that is, in the middle of an optimization.
type hookStats struct {
	*stats.Store
	hook func()
}

func (h hookStats) HistogramFor(table, column string) *stats.Histogram {
	h.hook()
	return h.Store.HistogramFor(table, column)
}

// hook makes the server's optimizer run fn inside every optimization.
func hook(s *Server, fn func()) {
	s.opt = optimizer.New(s.Cat, hookStats{Store: s.Stats, hook: fn}, s.HW)
}

// answer is one alternatives call's outcome in comparable form: the cost's
// bits, the used structures, and the skeleton's JSON.
type answer struct {
	cost uint64
	used string
	alts string
}

func answerOf(tb testing.TB, cost float64, used []string, alts *optimizer.Alternatives) answer {
	tb.Helper()
	b, err := json.Marshal(alts)
	if err != nil {
		tb.Fatal(err)
	}
	return answer{cost: math.Float64bits(cost), used: fmt.Sprint(used), alts: string(b)}
}

// ask issues one alternatives call through the server.
func ask(tb testing.TB, s *Server, stmt sqlparser.Statement, cfg *catalog.Configuration) answer {
	tb.Helper()
	c, used, alts, err := s.WhatIfAlternativesCost(stmt, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return answerOf(tb, c, used, alts)
}

// fresh optimizes the statement directly, bypassing the cache.
func fresh(tb testing.TB, s *Server, stmt sqlparser.Statement, cfg *catalog.Configuration) answer {
	tb.Helper()
	res, alts, err := s.Optimizer().OptimizeAlternatives(stmt, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return answerOf(tb, res.Cost, res.UsedStructures, alts)
}

func indexOnA() *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "a").WithInclude("b"))
	return cfg
}

// expectHits fails unless the server has answered exactly want calls from
// its plan cache.
func expectHits(tb testing.TB, s *Server, want int64, when string) {
	tb.Helper()
	if got := s.Acct().PlanCacheHits; got != want {
		tb.Fatalf("%s: plan-cache hits = %d, want %d", when, got, want)
	}
}

// TestPlanCacheHitIsAChargedCall: a hit answers a second session's copy of
// the question — a separately parsed statement, a cloned configuration —
// with the first call's optimization, and is charged like any call.
func TestPlanCacheHitIsAChargedCall(t *testing.T) {
	s := prodServer(t)
	const sql = "SELECT a, b FROM t WHERE a = 5 AND b < -3"
	first := ask(t, s, sqlparser.MustParse(sql), indexOnA())
	expectHits(t, s, 0, "first call")
	second := ask(t, s, sqlparser.MustParse(sql), indexOnA().Clone())
	expectHits(t, s, 1, "second session's call")
	if second != first {
		t.Fatalf("hit %+v differs from the optimization it reuses %+v", second, first)
	}
	if want := fresh(t, s, sqlparser.MustParse(sql), indexOnA()); second != want {
		t.Fatalf("hit %+v differs from a fresh optimization %+v", second, want)
	}
	acct := s.Acct()
	if acct.WhatIfCalls != 2 || acct.Overhead != 2*WhatIfCallCost {
		t.Fatalf("accounting = %+v, want 2 charged calls", acct)
	}
	// Another configuration order is another question: the order of plan
	// alternatives follows it.
	two := indexOnA()
	two.AddIndex(catalog.NewIndex("t", "b"))
	swapped := catalog.NewConfiguration()
	swapped.Indexes = []*catalog.Index{two.Indexes[1], two.Indexes[0]}
	ask(t, s, sqlparser.MustParse(sql), two)
	ask(t, s, sqlparser.MustParse(sql), swapped)
	expectHits(t, s, 1, "reordered configuration")
}

// TestPlanCacheInvalidation: creating a statistic, importing one and
// attaching data each change what the optimizer reads, so the next call is
// a miss that reflects the new state.
func TestPlanCacheInvalidation(t *testing.T) {
	stmt := sqlparser.MustParse("SELECT a, b FROM t WHERE a < 30 AND b = 2")
	cfg := indexOnA()
	// warm asks twice (a miss, then a hit) and returns the answer.
	warm := func(s *Server) answer {
		t.Helper()
		hits := s.Acct().PlanCacheHits
		a := ask(t, s, stmt, cfg)
		if b := ask(t, s, stmt, cfg); b != a {
			t.Fatal("a repeated call changed its answer")
		}
		expectHits(t, s, hits+1, "warm-up")
		return a
	}
	// after asks once more: a miss equal to a fresh optimization.
	after := func(s *Server, change string) answer {
		t.Helper()
		hits := s.Acct().PlanCacheHits
		a := ask(t, s, stmt, cfg)
		expectHits(t, s, hits, "first call after "+change)
		if want := fresh(t, s, stmt, cfg); a != want {
			t.Fatalf("after %s: call answered %+v, a fresh optimization %+v", change, a, want)
		}
		return a
	}

	t.Run("CreateStatistic", func(t *testing.T) {
		s := prodServer(t)
		warm(s)
		if _, err := s.CreateStatistic("t", []string{"b", "a"}); err != nil {
			t.Fatal(err)
		}
		after(s, "CreateStatistic")
	})
	t.Run("ImportStatistic", func(t *testing.T) {
		prod := prodServer(t)
		test := NewTestServer("test", prod)
		warm(test)
		if err := test.ImportStatistic(prod, "t", []string{"b"}); err != nil {
			t.Fatal(err)
		}
		after(test, "ImportStatistic")
	})
	t.Run("AttachData", func(t *testing.T) {
		prod := prodServer(t)
		// A metadata-only server over a copy of the catalog with no rows.
		cat := prod.Cat.Clone()
		cat.ResolveTable("t").Rows = 0
		s := NewServer("late", cat, prod.HW)
		empty := warm(s)
		db := engine.NewDatabase(cat)
		var rows [][]engine.Value
		for i := 0; i < 500; i++ {
			rows = append(rows, []engine.Value{engine.Num(float64(i % 100)), engine.Num(float64(i % 10))})
		}
		if err := db.Load("t", rows); err != nil {
			t.Fatal(err)
		}
		s.AttachData(db)
		if after(s, "AttachData") == empty {
			t.Fatal("row counts changed but the answer did not")
		}
	})
}

// asked is the outcome of an alternatives call issued on another goroutine.
type asked struct {
	cost float64
	used []string
	alts *optimizer.Alternatives
	err  error
}

// goAsk issues one alternatives call on a new goroutine.
func goAsk(s *Server, stmt sqlparser.Statement, cfg *catalog.Configuration) <-chan asked {
	out := make(chan asked, 1)
	go func() {
		var r asked
		r.cost, r.used, r.alts, r.err = s.WhatIfAlternativesCost(stmt, cfg)
		out <- r
	}()
	return out
}

// answered receives a goAsk call's outcome, failing the test on an error.
func answered(tb testing.TB, c <-chan asked) answer {
	tb.Helper()
	r := <-c
	if r.err != nil {
		tb.Fatal(r.err)
	}
	return answerOf(tb, r.cost, r.used, r.alts)
}

// waitParked returns once a call is blocked waiting for another call's
// plan-cache flight: a goroutine receiving on a channel in Server.plan
// itself (a leader blocked inside its optimization has deeper frames).
func waitParked(tb testing.TB) {
	tb.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "repro/internal/whatif.(*Server).plan(") {
				return
			}
		}
	}
	tb.Fatal("no call parked on the plan-cache flight")
}

// TestPlanCacheStatsRaceNeverPublishes: a statistic added while a miss is
// optimizing leaves that optimization unpublished — its own caller gets it,
// but a call that was waiting for it optimizes afresh under the new
// statistics, and so does the next call.
func TestPlanCacheStatsRaceNeverPublishes(t *testing.T) {
	s := prodServer(t)
	st, err := stats.Build(s.Cat, "t", []string{"a"}, engine.NewSampler(s.Data), stats.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook(s, func() {
		once.Do(func() {
			close(entered)
			<-release
			s.Stats.Add(st)
		})
	})
	stmt := sqlparser.MustParse("SELECT a FROM t WHERE a < 30")
	leader := goAsk(s, stmt, indexOnA())
	<-entered
	waiter := goAsk(s, stmt, indexOnA())
	waitParked(t)
	close(release)
	answered(t, leader)
	w := answered(t, waiter)
	expectHits(t, s, 0, "waiter of a raced miss")
	want := fresh(t, s, stmt, indexOnA())
	if w != want {
		t.Fatalf("waiter of the raced miss answered %+v, a fresh optimization %+v", w, want)
	}
	if got := ask(t, s, stmt, indexOnA()); got != want {
		t.Fatalf("call after the race answered %+v, a fresh optimization %+v", got, want)
	}
	expectHits(t, s, 1, "settled state")
}

// TestPlanCacheConcurrentStatsChurn races alternatives calls against
// statistics additions; whatever the interleaving, every answer the cache
// serves once the churn stops is the optimizer's answer under the final
// statistics.
func TestPlanCacheConcurrentStatsChurn(t *testing.T) {
	s := prodServer(t)
	var built []*stats.Statistic
	for _, cols := range [][]string{{"a"}, {"b"}, {"a", "b"}} {
		st, err := stats.Build(s.Cat, "t", cols, engine.NewSampler(s.Data), stats.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, st)
	}
	stmts := []sqlparser.Statement{
		sqlparser.MustParse("SELECT a FROM t WHERE a < 30"),
		sqlparser.MustParse("SELECT b, COUNT(*) FROM t WHERE a = 5 GROUP BY b"),
		sqlparser.MustParse("UPDATE t SET b = 1 WHERE a = 7"),
	}
	cfgs := []*catalog.Configuration{catalog.NewConfiguration(), indexOnA()}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Stats.Add(built[i%len(built)])
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 60; r++ {
				i := (g + r) % (len(stmts) * len(cfgs))
				if _, _, _, err := s.WhatIfAlternativesCost(stmts[i%len(stmts)], cfgs[i/len(stmts)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	for _, stmt := range stmts {
		for _, cfg := range cfgs {
			for range 2 {
				if got, want := ask(t, s, stmt, cfg), fresh(t, s, stmt, cfg); got != want {
					t.Fatalf("%s: cache answered %+v after the churn, the optimizer %+v", stmt, got, want)
				}
			}
		}
	}
}

// TestPlanCacheFailureIsolation: a failing or panicking leader leaves no
// entry behind, and a call waiting on it asks again and succeeds.
func TestPlanCacheFailureIsolation(t *testing.T) {
	t.Run("error", func(t *testing.T) {
		s := prodServer(t)
		bad := sqlparser.MustParse("SELECT z FROM nowhere WHERE z = 1")
		for range 2 {
			if _, _, _, err := s.WhatIfAlternativesCost(bad, nil); err == nil {
				t.Fatal("a statement over an unknown table optimized")
			}
		}
		expectHits(t, s, 0, "failed calls")
		if n := len(s.plans.plans); n != 0 {
			t.Fatalf("failed optimizations left %d cache entries", n)
		}
	})
	t.Run("panic", func(t *testing.T) {
		s := prodServer(t)
		reg := obs.NewRegistry()
		s.SetMetrics(reg)
		entered, release := make(chan struct{}), make(chan struct{})
		var n atomic.Int32
		hook(s, func() {
			if n.Add(1) == 1 {
				close(entered)
				<-release
				panic("leader down")
			}
		})
		stmt := sqlparser.MustParse("SELECT a FROM t WHERE a = 5")
		leaderPanicked := make(chan bool)
		go func() {
			defer func() { leaderPanicked <- recover() != nil }()
			s.WhatIfAlternativesCost(stmt, indexOnA())
		}()
		<-entered
		waited := goAsk(s, stmt, indexOnA())
		waitParked(t)
		close(release)
		if !<-leaderPanicked {
			t.Fatal("the leader did not panic")
		}
		w := answered(t, waited)
		expectHits(t, s, 0, "waiter of a panicked leader")
		if want := fresh(t, s, stmt, indexOnA()); w != want {
			t.Fatalf("waiter answered %+v, a fresh optimization %+v", w, want)
		}
		ask(t, s, stmt, indexOnA())
		expectHits(t, s, 1, "call after recovery")
		lat := reg.Histogram("dta_whatif_call_duration_seconds", "", obs.LatencyBuckets, "server", s.Name)
		if got, want := lat.Count(), uint64(s.WhatIfCallCount()); got != want {
			t.Fatalf("latency histogram observed %d calls, the server charged %d", got, want)
		}
	})
}

// TestPlanCacheBound: more distinct questions than the cache holds give the
// same answers, and the cache never grows past its bound.
func TestPlanCacheBound(t *testing.T) {
	s := prodServer(t)
	stmt := func(i int) sqlparser.Statement {
		return sqlparser.MustParse(fmt.Sprintf("SELECT a FROM t WHERE b = %d", i))
	}
	n := planCacheSize + 64
	for i := 0; i < n; i++ {
		if got, want := ask(t, s, stmt(i), indexOnA()), fresh(t, s, stmt(i), indexOnA()); got != want {
			t.Fatalf("question %d: cache answered %+v, the optimizer %+v", i, got, want)
		}
		if size := len(s.plans.plans); size > planCacheSize {
			t.Fatalf("cache holds %d entries, bound %d", size, planCacheSize)
		}
	}
	expectHits(t, s, 0, "distinct questions")
	for _, i := range []int{0, 1, n - 2, n - 1} {
		if got, want := ask(t, s, stmt(i), indexOnA()), fresh(t, s, stmt(i), indexOnA()); got != want {
			t.Fatalf("question %d asked again: cache answered %+v, the optimizer %+v", i, got, want)
		}
	}
	expectHits(t, s, 2, "re-asked questions (the two oldest were cleared with the full cache)")
}

// TestLatencyHistogramCountsFaultedCalls: the what-if latency histogram
// observes every call exactly once — failed, delayed and panicking calls
// included, timed from before the fault injection.
func TestLatencyHistogramCountsFaultedCalls(t *testing.T) {
	s := prodServer(t)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	spec, err := fault.ParseSpec("seed=5;whatif:error:0.5;whatif:latency:0.5:2ms;whatif:panic:0.1")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(spec)
	s.SetFaults(in)
	stmt := sqlparser.MustParse("SELECT a FROM t WHERE a = 5")
	failed := 0
	for i := 0; i < 40; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					failed++
				}
			}()
			var err error
			if i%2 == 0 {
				_, _, err = s.WhatIfCost(stmt, indexOnA())
			} else {
				_, _, _, err = s.WhatIfAlternativesCost(stmt, indexOnA())
			}
			if errors.Is(err, fault.ErrInjected) {
				failed++
			} else if err != nil {
				t.Fatal(err)
			}
		}()
	}
	counts := in.Counts()
	if failed == 0 || counts["whatif/latency"] == 0 {
		t.Fatalf("the spec injected too little to test: %v", counts)
	}
	lat := reg.Histogram("dta_whatif_call_duration_seconds", "", obs.LatencyBuckets, "server", s.Name)
	if got := lat.Count(); got != 40 || s.WhatIfCallCount() != 40 {
		t.Fatalf("latency histogram count = %d, server calls = %d, want 40 each", got, s.WhatIfCallCount())
	}
	if min := float64(counts["whatif/latency"]) * (2 * time.Millisecond).Seconds(); lat.Sum() < min {
		t.Fatalf("latency histogram sum = %gs, below the %gs of injected latency", lat.Sum(), min)
	}
	structs := reg.Histogram("dta_whatif_config_structures", "", obs.CountBuckets, "server", s.Name, "kind", "index")
	if got := structs.Count(); got != 40 {
		t.Fatalf("configuration-size histogram count = %d, want 40", got)
	}
}
