package optimizer_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// toyTPCH returns the toy-scale TPC-H catalog and an optimizer over
// catalog-derived single-column statistics.
func toyTPCH(tb testing.TB) (*catalog.Catalog, *optimizer.Optimizer) {
	tb.Helper()
	cat := tpch.Catalog(0.002)
	store := stats.NewStore()
	for _, t := range cat.Tables() {
		for _, col := range t.Columns {
			st, err := stats.Build(cat, t.Name, []string{col.Name}, nil)
			if err != nil {
				tb.Fatal(err)
			}
			store.Add(st)
		}
	}
	return cat, optimizer.New(cat, store, optimizer.DefaultHardware())
}

// groupedView builds the grouped materialized view that answers the
// aggregate query exactly — the shape candidate generation proposes — and
// fails the test when it does not match.
func groupedView(tb testing.TB, cat *catalog.Catalog, sql string, rows int64) catalog.Structure {
	tb.Helper()
	q, err := optimizer.Analyze(cat, sqlparser.MustParse(sql))
	if err != nil {
		tb.Fatal(err)
	}
	col := func(sc optimizer.ScopedCol) catalog.ColRef {
		return catalog.NewColRef(q.Scopes[sc.Scope].Table.Name, sc.Column)
	}
	var tables []string
	for _, s := range q.Scopes {
		tables = append(tables, s.Table.Name)
	}
	var joins []catalog.JoinPred
	for _, e := range q.Joins {
		joins = append(joins, catalog.JoinPred{
			Left:  catalog.NewColRef(q.Scopes[e.L].Table.Name, e.LCol),
			Right: catalog.NewColRef(q.Scopes[e.R].Table.Name, e.RCol),
		})
	}
	var out, groupBy []catalog.ColRef
	for si, s := range q.Scopes {
		for _, p := range s.Preds {
			for _, c := range p.InputColumns() {
				out = append(out, col(optimizer.ScopedCol{Scope: si, Column: c}))
			}
		}
	}
	for _, g := range q.GroupBy {
		groupBy = append(groupBy, col(g))
	}
	v := catalog.NewMaterializedView(tables, joins, out, groupBy, q.Aggs, rows)
	if _, ok := optimizer.MatchView(q, v); !ok {
		tb.Fatalf("view %s does not match %q", v.Key(), sql)
	}
	return catalog.Structure{View: v}
}

// wideJoinCase is one join query of the wide-join tests with the additive
// pool whose every subset the replay must reproduce.
type wideJoinCase struct {
	name string
	sql  string
	pool []catalog.Structure
}

// pointQueries returns TPC-H Q3, Q5, Q8 and Q9 with one range or pattern
// predicate narrowed to an equality. At toy scale the unchanged queries join
// only by hashing; the narrowed outer sides make index-nested-loop probes win
// under some configurations, so both join operators reach the final plans.
func pointQueries() map[int]string {
	qs := tpch.Queries()
	return map[int]string{
		3: strings.Replace(qs[2], "o_orderdate < 1170", "o_orderdate = 800", 1),
		5: strings.Replace(qs[4], "o_orderdate >= 730 AND o_orderdate < 1095", "o_orderdate = 800", 1),
		8: strings.Replace(qs[7], "o_orderdate BETWEEN 1095 AND 1825", "o_orderdate = 1200", 1),
		9: strings.Replace(qs[8], "p_name LIKE '%green%'", "p_name = 'green'", 1),
	}
}

// wideJoinCases returns toy TPC-H joins of five to seven scopes (the Q5, Q8
// and Q9 shapes of pointQueries) plus a three-scope join with a scope no join predicate
// reaches, whose composition falls back to the greedy order. Each pool holds
// join-column indexes on both sides of several edges (seek and probe
// alternatives), a filter-column index and, for the aggregate shapes, the
// grouped view that answers the query.
func wideJoinCases(tb testing.TB, cat *catalog.Catalog) []wideJoinCase {
	qs := pointQueries()
	ix := func(table string, cols ...string) *catalog.Index { return catalog.NewIndex(table, cols...) }
	st := func(ixs ...*catalog.Index) []catalog.Structure {
		out := make([]catalog.Structure, len(ixs))
		for i, x := range ixs {
			out[i] = catalog.Structure{Index: x}
		}
		return out
	}
	cases := []wideJoinCase{
		{name: "Q5", sql: qs[5], pool: st(
			ix("lineitem", "l_orderkey"),
			ix("lineitem", "l_suppkey"),
			ix("orders", "o_custkey"),
			ix("orders", "o_orderdate").WithInclude("o_custkey", "o_orderkey"),
			ix("customer", "c_nationkey"),
			ix("supplier", "s_nationkey"),
		)},
		{name: "Q8", sql: qs[8], pool: st(
			ix("lineitem", "l_partkey"),
			ix("lineitem", "l_orderkey"),
			ix("orders", "o_orderdate").WithInclude("o_custkey", "o_orderkey"),
			ix("customer", "c_nationkey"),
			ix("part", "p_type"),
			ix("nation", "n_regionkey"),
		)},
		{name: "Q9", sql: qs[9], pool: st(
			ix("lineitem", "l_partkey"),
			ix("lineitem", "l_suppkey"),
			ix("partsupp", "ps_suppkey"),
			ix("partsupp", "ps_partkey").WithInclude("ps_suppkey", "ps_supplycost"),
			ix("orders", "o_orderkey"),
			ix("supplier", "s_nationkey"),
		)},
		{name: "cross", sql: `SELECT n_name, r_name, s_name FROM supplier, nation, region
			WHERE s_nationkey = n_nationkey AND r_name = 'ASIA' AND s_acctbal > 5000`, pool: st(
			ix("supplier", "s_nationkey"),
			ix("supplier", "s_acctbal").WithInclude("s_name", "s_nationkey"),
			ix("nation", "n_nationkey"),
			ix("region", "r_name"),
		)},
	}
	for i, r := range []int64{8000, 6000, 9000} {
		cases[i].pool = append(cases[i].pool, groupedView(tb, cat, cases[i].sql, r))
	}
	return cases
}

// subsetConfig builds base plus the structures of pool the mask selects,
// applied in reverse pool order.
func subsetConfig(base *catalog.Configuration, pool []catalog.Structure, mask int) *catalog.Configuration {
	cfg := base.Clone()
	for i := len(pool) - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			pool[i].ApplyTo(cfg)
		}
	}
	return cfg
}

// TestWideJoinSelectMatchesDirectOptimize is the join-skeleton soundness
// property on wide joins: for each query, under a heap base and the
// constraint (clustered primary key) base, replaying the skeleton taken at
// the full pool on every subset of it returns bit-for-bit the cost and used
// set a direct optimization of the subset returns. Five- to seven-scope
// queries drive the subset DP through every subset size; the disconnected
// query drives the greedy composition.
func TestWideJoinSelectMatchesDirectOptimize(t *testing.T) {
	cat, o := toyTPCH(t)
	bases := map[string]*catalog.Configuration{
		"heap":       catalog.NewConfiguration(),
		"constraint": tpch.ConstraintConfig(cat),
	}
	for _, c := range wideJoinCases(t, cat) {
		if len(c.pool) > 7 {
			t.Fatalf("%s: pool of %d structures, want at most 7", c.name, len(c.pool))
		}
		stmt := sqlparser.MustParse(c.sql)
		for baseName, base := range bases {
			_, alts, err := o.OptimizeAlternatives(stmt, subsetConfig(base, c.pool, 1<<len(c.pool)-1))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, baseName, err)
			}
			if alts == nil || alts.Join == nil {
				t.Fatalf("%s/%s: want a join skeleton", c.name, baseName)
			}
			if c.name != "cross" && len(alts.Join.Scopes) < 5 {
				t.Fatalf("%s: %d scopes, want at least 5", c.name, len(alts.Join.Scopes))
			}
			for mask := 0; mask < 1<<len(c.pool); mask++ {
				want, err := o.Optimize(stmt, subsetConfig(base, c.pool, mask))
				if err != nil {
					t.Fatal(err)
				}
				got, gotUsed, ok := alts.Select(func(key string) bool {
					for i, s := range c.pool {
						if mask&(1<<i) != 0 && s.Key() == key {
							return true
						}
					}
					return false
				})
				if !ok || got != want.Cost {
					t.Fatalf("%s/%s mask %b: replayed cost %v (ok %v) != direct cost %v", c.name, baseName, mask, got, ok, want.Cost)
				}
				slices.Sort(gotUsed)
				wantUsed := slices.Clone(want.UsedStructures)
				slices.Sort(wantUsed)
				if !slices.Equal(gotUsed, wantUsed) {
					t.Fatalf("%s/%s mask %b: replayed used %v != direct used %v", c.name, baseName, mask, gotUsed, wantUsed)
				}
			}
		}
	}
}

// goldenPlanConfig is the fixed configuration the plan golden renders under:
// the constraint clustered indexes plus join-column and filter indexes that
// make both hash and index-nested-loop joins win somewhere.
func goldenPlanConfig(cat *catalog.Catalog) *catalog.Configuration {
	cfg := tpch.ConstraintConfig(cat)
	for _, ix := range []*catalog.Index{
		catalog.NewIndex("lineitem", "l_suppkey"),
		catalog.NewIndex("lineitem", "l_partkey"),
		catalog.NewIndex("orders", "o_custkey"),
		catalog.NewIndex("orders", "o_orderdate").WithInclude("o_custkey", "o_orderkey"),
		catalog.NewIndex("partsupp", "ps_suppkey"),
		catalog.NewIndex("supplier", "s_nationkey"),
	} {
		cfg.AddIndex(ix)
	}
	return cfg
}

// TestJoinPlanGolden pins the rendered plan trees (operators, details, costs
// and cardinalities) of four TPC-H joins under a fixed configuration, with
// the used structures, against testdata/join_plans.golden. Each tree mixes
// hash joins with an index-nested-loop join; Q3's probes a scope that keeps
// a residual local predicate.
func TestJoinPlanGolden(t *testing.T) {
	cat, o := toyTPCH(t)
	cfg := goldenPlanConfig(cat)
	qs := pointQueries()
	var b strings.Builder
	for _, qn := range []int{3, 5, 8, 9} {
		res, err := o.Optimize(sqlparser.MustParse(qs[qn]), cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== Q%d used=%v\n%s", qn, res.UsedStructures, res.Plan.String())
	}
	want, err := os.ReadFile("testdata/join_plans.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("join plans differ from testdata/join_plans.golden:\n%s", got)
	}
}

// TestCompiledJoinConcurrentReplay replays one join skeleton from several
// goroutines at once, as the derivation engine's workers share a fact: the
// first replays race to compile the skeleton and every replay shares the
// compiled form and the recycled DP tables. Each must still return the
// direct optimization's cost and used set.
func TestCompiledJoinConcurrentReplay(t *testing.T) {
	cat, o := toyTPCH(t)
	c := wideJoinCases(t, cat)[1] // Q8: seven scopes
	base := tpch.ConstraintConfig(cat)
	stmt := sqlparser.MustParse(c.sql)
	_, alts, err := o.OptimizeAlternatives(stmt, subsetConfig(base, c.pool, 1<<len(c.pool)-1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*optimizer.Result, 1<<len(c.pool))
	for mask := range want {
		if want[mask], err = o.Optimize(stmt, subsetConfig(base, c.pool, mask)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range want {
				mask := (k + w*len(want)/4) % len(want)
				got, used, ok := alts.Select(func(key string) bool {
					for i, s := range c.pool {
						if mask&(1<<i) != 0 && s.Key() == key {
							return true
						}
					}
					return false
				})
				slices.Sort(used)
				wantUsed := slices.Clone(want[mask].UsedStructures)
				slices.Sort(wantUsed)
				if !ok || got != want[mask].Cost || !slices.Equal(used, wantUsed) {
					t.Errorf("worker %d mask %b: replay (%v, %v, %v) != direct (%v, %v)", w, mask, got, used, ok, want[mask].Cost, wantUsed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
