package optimizer_test

import (
	"testing"

	"repro/internal/datagen/tpch"
	"repro/internal/sqlparser"
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
// runs it (Alternatives.Select; the skeleton compiles on the first call):
// one iteration replays the seven-scope Q8 skeleton, captured at the full
// wide-join pool over the constraint base, on every subset of the pool (128
// replays).
func BenchmarkSelectJoin(b *testing.B) {
	cat, o := toyTPCH(b)
	c := wideJoinCases(b, cat)[1] // Q8
	_, alts, err := o.OptimizeAlternatives(sqlparser.MustParse(c.sql),
		subsetConfig(tpch.ConstraintConfig(cat), c.pool, 1<<len(c.pool)-1))
	if err != nil {
		b.Fatal(err)
	}
	sets := make([]map[string]bool, 1<<len(c.pool))
	for mask := range sets {
		sets[mask] = map[string]bool{}
		for i, s := range c.pool {
			if mask&(1<<i) != 0 {
				sets[mask][s.Key()] = true
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			if _, _, ok := alts.Select(func(k string) bool { return set[k] }); !ok {
				b.Fatal("replay failed")
			}
		}
	}
}
