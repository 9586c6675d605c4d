package optimizer_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen/psoft"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// BenchmarkOptimizeJoin measures live optimization with skeleton capture
// (OptimizeAlternatives) of toy TPC-H Q8 and Q9 — a seven- and a six-scope
// join — under the plan-golden configuration plus each query's grouped view:
// the per-scope access paths and probe inputs, the join-order DP and the
// skeleton capture of one what-if call.
func BenchmarkOptimizeJoin(b *testing.B) {
	cat, o := toyTPCH(b)
	qs := tpch.Queries()
	var stmts []sqlparser.Statement
	cfg := goldenPlanConfig(cat)
	for _, qi := range []int{7, 8} {
		stmts = append(stmts, sqlparser.MustParse(qs[qi]))
		groupedView(b, cat, qs[qi], 5000).ApplyTo(cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stmt := range stmts {
			if _, _, err := o.OptimizeAlternatives(stmt, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSelectJoin measures join-skeleton replay as the derivation layer
// runs it (Alternatives.Replay; the skeleton compiles on the first call): one
// iteration replays the seven-scope Q8 skeleton, captured at the full
// wide-join pool over the constraint base, on every subset of the pool (128
// replays).
func BenchmarkSelectJoin(b *testing.B) {
	cat, o := toyTPCH(b)
	c := wideJoinCases(b, cat)[1] // Q8
	benchReplay(b, o, c.sql, tpch.ConstraintConfig(cat), c.pool)
}

// BenchmarkSelect measures the cost-only replay the derivation layer answers
// an evaluation with (Alternatives.Replay) on the two flat skeleton shapes:
// a single-scope SYNT1 query and a PSOFT UPDATE (its maintenance sum), each
// captured at a seven-index pool and replayed on all 128 subsets of it per
// iteration. Neither replay collects used structures, so neither allocates.
func BenchmarkSelect(b *testing.B) {
	ix := func(table string, cols ...string) catalog.Structure {
		return catalog.Structure{Index: catalog.NewIndex(table, cols...)}
	}
	incl := func(table string, cols []string, include ...string) catalog.Structure {
		return catalog.Structure{Index: catalog.NewIndex(table, cols...).WithInclude(include...)}
	}
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
		sql  string
		pool []catalog.Structure
	}{
		{"synt1-single-scope", setquery.Catalog(4000),
			"SELECT k1k, SUM(k100) FROM bench WHERE k10 = 3 AND k250k BETWEEN 100 AND 3000 GROUP BY k1k ORDER BY k1k",
			[]catalog.Structure{
				ix("bench", "k10"), ix("bench", "k250k"), ix("bench", "k10", "k250k"), ix("bench", "k1k"),
				incl("bench", []string{"k250k"}, "k10", "k1k", "k100"),
				incl("bench", []string{"k10", "k1k"}, "k100", "k250k"),
				incl("bench", []string{"k1k"}, "k10", "k100", "k250k"),
			}},
		{"psoft-update", psoft.Catalog(0.005),
			"UPDATE ps_employee SET salary = 50000 WHERE deptid = 12 AND jobcode = 7",
			[]catalog.Structure{
				ix("ps_employee", "deptid"), ix("ps_employee", "jobcode"), ix("ps_employee", "deptid", "jobcode"),
				ix("ps_employee", "salary"), ix("ps_employee", "emplid"),
				incl("ps_employee", []string{"hire_dt"}, "salary"),
				incl("ps_employee", []string{"jobcode"}, "deptid", "salary"),
			}},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchReplay(b, optimizer.New(c.cat, stats.NewStore(), optimizer.DefaultHardware()), c.sql, catalog.NewConfiguration(), c.pool)
		})
	}
}

// benchReplay captures the statement's skeleton under base plus the whole
// pool and times its cost-only replay on every subset of the pool, over the
// subset's gate availability as the derivation layer passes it, checking
// each against the used-collecting Select once before the clock starts.
func benchReplay(b *testing.B, o *optimizer.Optimizer, sql string, base *catalog.Configuration, pool []catalog.Structure) {
	_, alts, err := o.OptimizeAlternatives(sqlparser.MustParse(sql), subsetConfig(base, pool, 1<<len(pool)-1))
	if err != nil {
		b.Fatal(err)
	}
	avails := make([][]bool, 1<<len(pool))
	for mask := range avails {
		set := map[string]bool{}
		for i, s := range pool {
			if mask&(1<<i) != 0 {
				set[s.Key()] = true
			}
		}
		for _, key := range alts.Gates() {
			avails[mask] = append(avails[mask], set[key])
		}
		cost, ok := alts.Replay(avails[mask], nil)
		if want, _, wantOK := alts.Select(func(k string) bool { return set[k] }); !ok || !wantOK || cost != want {
			b.Fatalf("subset %b: cost-only replay %v (%v), used-collecting replay %v (%v)", mask, cost, ok, want, wantOK)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, avail := range avails {
			if _, ok := alts.Replay(avail, nil); !ok {
				b.Fatal("replay failed")
			}
		}
	}
}
