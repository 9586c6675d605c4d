package whatif_test

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen/cust"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// recorder is a tuning backend that records every alternatives call — the
// questions a real session asks, over the configurations its search builds.
type recorder struct {
	*whatif.Server
	mu    sync.Mutex
	calls []question
}

type question struct {
	stmt sqlparser.Statement
	cfg  *catalog.Configuration
}

func (r *recorder) WhatIfAlternativesCost(stmt sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, *optimizer.Alternatives, error) {
	r.mu.Lock()
	r.calls = append(r.calls, question{stmt: stmt, cfg: cfg.Clone()})
	r.mu.Unlock()
	return r.Server.WhatIfAlternativesCost(stmt, cfg)
}

// generator is one of the repository's workload generators at toy scale:
// its catalog, data, base configuration and workload.
type generator struct {
	name string
	cat  *catalog.Catalog
	db   *engine.Database
	base *catalog.Configuration
	w    *workload.Workload
}

func generators(tb testing.TB) []generator {
	tb.Helper()
	var out []generator
	add := func(name string, cat *catalog.Catalog, db *engine.Database, err error, base *catalog.Configuration, w *workload.Workload) {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, generator{name: name, cat: cat, db: db, base: base, w: w})
	}
	{
		cat := tpch.Catalog(0.002)
		db, err := tpch.Load(cat, 1)
		add("tpch", cat, db, err, tpch.ConstraintConfig(cat), tpch.Workload())
	}
	{
		cat := psoft.Catalog(0.005)
		db, err := psoft.Load(cat, 1)
		add("psoft", cat, db, err, demo.ConstraintConfig("psoft", cat), psoft.Workload(cat, 300, 1))
	}
	{
		cat := setquery.Catalog(4000)
		db, err := setquery.Load(cat, 1)
		add("synt1", cat, db, err, demo.ConstraintConfig("synt1", cat), setquery.Workload(cat, 400, 30, 1))
	}
	{
		sc := cust.Cust3(0.01)
		db, err := sc.Load(1)
		add("cust3", sc.Catalog, db, err, sc.ConstraintConfig(), sc.Workload(200, 1))
	}
	return out
}

// outcome is an optimization's answer in comparable form.
type outcome struct {
	cost uint64
	used string
	alts string
}

func outcomeOf(tb testing.TB, cost float64, used []string, alts *optimizer.Alternatives) outcome {
	tb.Helper()
	b, err := json.Marshal(alts)
	if err != nil {
		tb.Fatal(err)
	}
	return outcome{cost: math.Float64bits(cost), used: fmt.Sprint(used), alts: string(b)}
}

// TestPlanCacheSoundOverGenerators: over the questions real sessions ask
// of every generator's workload — the 22 TPC-H queries, PSOFT with its
// DML, SYNT1 and an update-heavy customer scenario, each under the
// configurations a full tuning run builds — a plan-cache hit served to a
// re-parsed copy of the statement and a cloned configuration equals a
// fresh optimization bit for bit (cost, used structures and skeleton
// JSON), and optimizing the re-parse equals optimizing the original.
func TestPlanCacheSoundOverGenerators(t *testing.T) {
	for _, g := range generators(t) {
		t.Run(g.name, func(t *testing.T) {
			srv := whatif.NewServer(g.name, g.cat, optimizer.DefaultHardware())
			srv.AttachData(g.db)
			rec := &recorder{Server: srv}
			if _, err := core.Tune(rec, g.w, core.Options{BaseConfig: g.base, Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
			// A second server under the session's final statistics answers
			// the recorded questions.
			s := whatif.NewServer(g.name, g.cat, optimizer.DefaultHardware())
			for _, st := range srv.Stats.All() {
				s.Stats.Add(st)
			}
			const samples = 300
			stride := max(1, len(rec.calls)/samples)
			t.Logf("%d alternatives calls recorded, every %dth replayed", len(rec.calls), stride)
			for i := 0; i < len(rec.calls); i += stride {
				q := rec.calls[i]
				again, err := sqlparser.Parse(q.stmt.String())
				if err != nil {
					t.Fatalf("call %d: deparse of %q does not re-parse: %v", i, q.stmt, err)
				}
				if _, _, _, err := s.WhatIfAlternativesCost(q.stmt, q.cfg); err != nil {
					t.Fatal(err)
				}
				hits := s.Acct().PlanCacheHits
				c, used, alts, err := s.WhatIfAlternativesCost(again, q.cfg.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Acct().PlanCacheHits; got != hits+1 {
					t.Fatalf("call %d: the re-parsed question missed the cache (%q)", i, q.stmt)
				}
				hit := outcomeOf(t, c, used, alts)
				res, falts, err := s.Optimizer().OptimizeAlternatives(again, q.cfg.Clone())
				if err != nil {
					t.Fatal(err)
				}
				if want := outcomeOf(t, res.Cost, res.UsedStructures, falts); hit != want {
					t.Fatalf("call %d (%q): hit\n%+v\nfresh optimization\n%+v", i, q.stmt, hit, want)
				}
				ores, oalts, err := s.Optimizer().OptimizeAlternatives(q.stmt, q.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if orig := outcomeOf(t, ores.Cost, ores.UsedStructures, oalts); orig != hit {
					t.Fatalf("call %d: optimizing Parse(s.String()) differs from optimizing s = %q", i, q.stmt)
				}
			}
		})
	}
}

// BenchmarkPlanCache runs a toy TPC-H tuning session on a cold server —
// statistics in place, plan cache empty — then the same session again on
// the now warm server, and reports each session's time and the warm
// session's plan-cache hit ratio.
func BenchmarkPlanCache(b *testing.B) {
	cat := tpch.Catalog(0.002)
	db, err := tpch.Load(cat, 1)
	if err != nil {
		b.Fatal(err)
	}
	w, opts := tpch.Workload(), core.Options{BaseConfig: tpch.ConstraintConfig(cat), Parallelism: 1}
	stats := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
	stats.AttachData(db)
	if _, err := core.Tune(stats, w, opts); err != nil {
		b.Fatal(err)
	}
	session := func(s *whatif.Server) (time.Duration, whatif.Accounting) {
		before, start := s.Acct(), time.Now()
		if _, err := core.Tune(s, w, opts); err != nil {
			b.Fatal(err)
		}
		elapsed, after := time.Since(start), s.Acct()
		return elapsed, whatif.Accounting{WhatIfCalls: after.WhatIfCalls - before.WhatIfCalls, PlanCacheHits: after.PlanCacheHits - before.PlanCacheHits}
	}
	var cold, warm time.Duration
	var calls, hits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := whatif.NewServer("tpch", cat, optimizer.DefaultHardware())
		for _, st := range stats.Stats.All() {
			s.Stats.Add(st)
		}
		d, _ := session(s)
		cold += d
		d, acct := session(s)
		warm += d
		calls += acct.WhatIfCalls
		hits += acct.PlanCacheHits
	}
	b.ReportMetric(float64(cold.Nanoseconds())/float64(b.N), "cold-ns/op")
	b.ReportMetric(float64(warm.Nanoseconds())/float64(b.N), "warm-ns/op")
	b.ReportMetric(float64(hits)/float64(max(calls, 1)), "warm-hit-ratio")
}
