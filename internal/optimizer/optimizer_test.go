package optimizer

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// testCatalog builds a two-table schema: a 1M-row fact table t and a
// 50k-row dimension d.
func testCatalog() *catalog.Catalog {
	c := catalog.New()
	db := catalog.NewDatabase("db")
	db.AddTable(catalog.NewTable("db", "t", 1_000_000,
		&catalog.Column{Name: "id", Type: catalog.TypeInt, Width: 8, Distinct: 1_000_000, Min: 1, Max: 1_000_000},
		&catalog.Column{Name: "x", Type: catalog.TypeInt, Width: 8, Distinct: 10_000, Min: 0, Max: 9_999},
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 50_000, Min: 1, Max: 50_000},
		&catalog.Column{Name: "pad", Type: catalog.TypeString, Width: 100, Distinct: 1_000_000, Min: 0, Max: 999_999},
	))
	db.AddTable(catalog.NewTable("db", "d", 50_000,
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 50_000, Min: 1, Max: 50_000},
		&catalog.Column{Name: "name", Type: catalog.TypeString, Width: 30, Distinct: 50_000, Min: 0, Max: 49_999},
		&catalog.Column{Name: "region", Type: catalog.TypeInt, Width: 8, Distinct: 5, Min: 0, Max: 4},
	))
	c.AddDatabase(db)
	return c
}

func newOpt(cat *catalog.Catalog) *Optimizer {
	store := stats.NewStore()
	for _, t := range cat.Tables() {
		for _, col := range t.Columns {
			st, err := stats.Build(cat, t.Name, []string{col.Name}, nil)
			if err != nil {
				panic(err)
			}
			store.Add(st)
		}
	}
	return New(cat, store, DefaultHardware())
}

func cost(t *testing.T, o *Optimizer, sql string, cfg *catalog.Configuration) float64 {
	t.Helper()
	res, err := o.Optimize(sqlparser.MustParse(sql), cfg)
	if err != nil {
		t.Fatalf("Optimize(%q): %v", sql, err)
	}
	if res.Cost <= 0 || math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
		t.Fatalf("Optimize(%q): bad cost %v", sql, res.Cost)
	}
	return res.Cost
}

func TestIndexSeekBeatsScanOnSelectivePredicate(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT id FROM t WHERE x = 42"

	raw := cost(t, o, q, nil)
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	with := cost(t, o, q, cfg)
	if with >= raw/5 {
		t.Fatalf("index should cut a selective lookup by >5x: raw=%.1f with=%.1f", raw, with)
	}
}

func TestCoveringIndexBeatsRIDLookupsOnWideRange(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	// ~30% of rows qualify: RID lookups are ruinous, covering scan is not.
	q := "SELECT x, a FROM t WHERE x < 3000"

	ncfg := catalog.NewConfiguration()
	ncfg.AddIndex(catalog.NewIndex("t", "x"))
	nonCovering := cost(t, o, q, ncfg)

	ccfg := catalog.NewConfiguration()
	ccfg.AddIndex(catalog.NewIndex("t", "x").WithInclude("a"))
	covering := cost(t, o, q, ccfg)

	raw := cost(t, o, q, nil)
	if covering >= raw {
		t.Fatalf("covering index should beat heap scan: %.1f vs %.1f", covering, raw)
	}
	if covering >= nonCovering {
		t.Fatalf("covering should beat RID lookups on a wide range: %.1f vs %.1f", covering, nonCovering)
	}
	// The optimizer should not pick the lookup plan when it loses to a scan.
	if nonCovering > raw*1.01 {
		t.Fatalf("optimizer must fall back to scan rather than pay lookups: %.1f vs raw %.1f", nonCovering, raw)
	}
}

func TestClusteredIndexHelpsRange(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT pad FROM t WHERE x BETWEEN 100 AND 200"

	raw := cost(t, o, q, nil)
	cfg := catalog.NewConfiguration()
	cix := catalog.NewIndex("t", "x")
	cix.Clustered = true
	cfg.AddIndex(cix)
	with := cost(t, o, q, cfg)
	if with >= raw/5 {
		t.Fatalf("clustered range scan should be far cheaper: raw=%.1f with=%.1f", raw, with)
	}
}

func TestPartitionElimination(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT pad FROM t WHERE x = 5000"

	raw := cost(t, o, q, nil)
	cfg := catalog.NewConfiguration()
	var bounds []float64
	for b := 1000.0; b < 10000; b += 1000 {
		bounds = append(bounds, b)
	}
	cfg.SetTablePartitioning("t", catalog.NewPartitionScheme("x", bounds...))
	with := cost(t, o, q, cfg)
	if with >= raw/2 {
		t.Fatalf("partition elimination should cut the scan: raw=%.1f with=%.1f", raw, with)
	}
	// Partitioning consumes no storage.
	if cfg.StorageBytes(cat) != 0 {
		t.Fatal("partitioning must be storage-free")
	}
	// A query not on the partitioning column gains nothing.
	q2 := "SELECT pad FROM t WHERE a = 3"
	if c1, c2 := cost(t, o, q2, nil), cost(t, o, q2, cfg); c2 > c1*1.01 || c2 < c1*0.5 {
		t.Fatalf("unrelated query should be unaffected: %.1f vs %.1f", c1, c2)
	}
}

func TestPaperExample1AlternativeStructures(t *testing.T) {
	// Paper §3 Example 1: SELECT A, COUNT(*) FROM T WHERE X < 10 GROUP BY A.
	// A clustered index on X, partitioning on X, a covering index (X, A),
	// and a matching MV all reduce the cost.
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a"
	raw := cost(t, o, q, nil)

	cix := catalog.NewConfiguration()
	ci := catalog.NewIndex("t", "x")
	ci.Clustered = true
	cix.AddIndex(ci)
	if c := cost(t, o, q, cix); c >= raw {
		t.Fatalf("clustered on X should help: %.1f vs %.1f", c, raw)
	}

	part := catalog.NewConfiguration()
	part.SetTablePartitioning("t", catalog.NewPartitionScheme("x", 10, 100, 1000, 5000))
	if c := cost(t, o, q, part); c >= raw {
		t.Fatalf("partitioning on X should help: %.1f vs %.1f", c, raw)
	}

	cov := catalog.NewConfiguration()
	cov.AddIndex(catalog.NewIndex("t", "x", "a"))
	if c := cost(t, o, q, cov); c >= raw {
		t.Fatalf("covering index should help: %.1f vs %.1f", c, raw)
	}

	mv := catalog.NewConfiguration()
	mv.AddView(catalog.NewMaterializedView(
		[]string{"t"}, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "x"), catalog.NewColRef("t", "a")},
		[]catalog.ColRef{catalog.NewColRef("t", "x"), catalog.NewColRef("t", "a")},
		[]catalog.Agg{{Func: "COUNT"}},
		100*10_000, // |a| × |x| groups upper bound, still ≪ table
	))
	if c := cost(t, o, q, mv); c >= raw {
		t.Fatalf("materialized view should help: %.1f vs %.1f", c, raw)
	}
}

func TestMVMatchingRules(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)

	grouped := catalog.NewMaterializedView(
		[]string{"t"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "a")},
		[]catalog.Agg{{Func: "COUNT"}, {Func: "SUM", Col: catalog.NewColRef("t", "x")}},
		100,
	)
	cfg := catalog.NewConfiguration()
	cfg.AddView(grouped)

	// Exact group match: answerable from the view.
	res, err := o.Optimize(sqlparser.MustParse("SELECT a, COUNT(*) FROM t GROUP BY a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	usedView := false
	for _, s := range res.UsedStructures {
		if s == grouped.Key() {
			usedView = true
		}
	}
	if !usedView {
		t.Fatalf("exact-group query should use the view, used: %v", res.UsedStructures)
	}

	// Aggregate not in the view: not answerable.
	res2, err := o.Optimize(sqlparser.MustParse("SELECT a, MIN(x) FROM t GROUP BY a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res2.UsedStructures {
		if s == grouped.Key() {
			t.Fatal("MIN(x) is not derivable from the view")
		}
	}

	// Predicate on a column the view lost: not answerable.
	res3, err := o.Optimize(sqlparser.MustParse("SELECT a, COUNT(*) FROM t WHERE x = 1 GROUP BY a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res3.UsedStructures {
		if s == grouped.Key() {
			t.Fatal("predicate column x is not exposed by the view")
		}
	}
}

func TestJoinUsesIndexNestedLoop(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 17"

	raw := cost(t, o, q, nil)
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x"))
	cfg.AddIndex(catalog.NewIndex("d", "d_id").WithInclude("name"))
	with := cost(t, o, q, cfg)
	if with >= raw/3 {
		t.Fatalf("selective probe-side index + INL should win big: raw=%.1f with=%.1f", raw, with)
	}
}

func TestUpdateCostGrowsWithIndexes(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "UPDATE t SET x = 1 WHERE id = 77"

	cfg1 := catalog.NewConfiguration()
	cfg1.AddIndex(catalog.NewIndex("t", "id"))
	base := cost(t, o, q, cfg1)

	cfg2 := cfg1.Clone()
	cfg2.AddIndex(catalog.NewIndex("t", "x"))
	cfg2.AddIndex(catalog.NewIndex("t", "x", "a"))
	cfg2.AddView(catalog.NewMaterializedView(
		[]string{"t"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "x")},
		[]catalog.Agg{{Func: "COUNT"}},
		10_000,
	))
	more := cost(t, o, q, cfg2)
	if more <= base {
		t.Fatalf("maintenance must make updates dearer: %.2f vs %.2f", more, base)
	}

	// Indexes not touching the SET columns are not maintained.
	cfg3 := cfg1.Clone()
	cfg3.AddIndex(catalog.NewIndex("t", "a"))
	same := cost(t, o, q, cfg3)
	if math.Abs(same-base) > base*0.01 {
		t.Fatalf("untouched index should not add cost: %.2f vs %.2f", same, base)
	}
}

func TestInsertDeleteMaintenance(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)

	ins := "INSERT INTO t VALUES (1, 2, 3, 4, 'p')"
	raw := cost(t, o, ins, nil)
	cfg := catalog.NewConfiguration()
	for _, col := range []string{"x", "a", "d_id"} {
		cfg.AddIndex(catalog.NewIndex("t", col))
	}
	with := cost(t, o, ins, cfg)
	if with <= raw {
		t.Fatal("insert must maintain indexes")
	}

	del := "DELETE FROM t WHERE x = 5"
	delRaw := cost(t, o, del, nil)
	delWith := cost(t, o, del, cfg)
	// The index makes finding the rows cheaper but removal dearer; with a
	// selective predicate the find savings dominate.
	if delWith >= delRaw {
		t.Fatalf("selective delete should still benefit from the index: %.1f vs %.1f", delWith, delRaw)
	}
}

func TestRequiredStatsReported(t *testing.T) {
	cat := testCatalog()
	o := New(cat, stats.NewStore(), DefaultHardware()) // empty stats
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "x", "a"))
	res, err := o.Optimize(sqlparser.MustParse("SELECT id FROM t WHERE x = 3"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RequiredStats) == 0 {
		t.Fatal("missing statistics should be reported")
	}
	found := false
	for _, r := range res.RequiredStats {
		if r.Key() == "t(x,a)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stat on the index key columns should be wanted: %v", res.RequiredStats)
	}
}

func TestHardwareAffectsCost(t *testing.T) {
	cat := testCatalog()
	store := stats.NewStore()
	small := New(cat, store, Hardware{CPUs: 1, MemoryPages: 1 << 10, RandomFactor: 4})
	big := New(cat, store, Hardware{CPUs: 32, MemoryPages: 1 << 20, RandomFactor: 4})
	q := sqlparser.MustParse("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a")
	rs, err := small.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := big.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Cost >= rs.Cost {
		t.Fatalf("more CPUs/memory must not cost more: big=%.1f small=%.1f", rb.Cost, rs.Cost)
	}
}

func TestOrderByAvoidedByClusteredIndex(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := "SELECT id, x FROM t ORDER BY x"
	raw := cost(t, o, q, nil)
	cfg := catalog.NewConfiguration()
	cix := catalog.NewIndex("t", "x")
	cix.Clustered = true
	cfg.AddIndex(cix)
	with := cost(t, o, q, cfg)
	if with >= raw {
		t.Fatalf("sorted access should avoid the sort: %.1f vs %.1f", with, raw)
	}
}

func TestSelfJoinAndErrors(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	// Self-join parses and optimizes (no MV path).
	if c := cost(t, o, "SELECT t1.id FROM t t1, t t2 WHERE t1.x = t2.a", nil); c <= 0 {
		t.Fatal("self-join should cost something")
	}
	if _, err := o.Optimize(sqlparser.MustParse("SELECT z FROM nosuch"), nil); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := o.Optimize(sqlparser.MustParse("SELECT nocol FROM t"), nil); err == nil {
		t.Fatal("unknown column must error")
	}
}

func TestAnalyzeShapes(t *testing.T) {
	cat := testCatalog()
	q, err := Analyze(cat, sqlparser.MustParse(
		"SELECT d.region, COUNT(*) FROM t JOIN d ON t.d_id = d.d_id WHERE t.x BETWEEN 1 AND 5 AND d.name LIKE 'ab%' GROUP BY d.region ORDER BY d.region"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Scopes) != 2 || len(q.Joins) != 1 {
		t.Fatalf("scopes=%d joins=%d", len(q.Scopes), len(q.Joins))
	}
	if len(q.Scopes[0].Preds) != 1 || q.Scopes[0].Preds[0].Kind != PredRange {
		t.Fatalf("t preds = %+v", q.Scopes[0].Preds)
	}
	if len(q.Scopes[1].Preds) != 1 || q.Scopes[1].Preds[0].Kind != PredLike {
		t.Fatalf("d preds = %+v", q.Scopes[1].Preds)
	}
	if !q.Scopes[1].Preds[0].Sargable() {
		t.Fatal("LIKE 'ab%' has a literal prefix and is sargable")
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Scope != 1 {
		t.Fatalf("group by = %+v", q.GroupBy)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].String() != "COUNT(*)" {
		t.Fatalf("aggs = %+v", q.Aggs)
	}
}

func TestPlanRendering(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	res, err := o.Optimize(sqlparser.MustParse("SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Plan.String()
	if s == "" || res.Plan.Rows <= 0 {
		t.Fatal("plan should render and carry cardinalities")
	}
}

// TestAnalysisLivesWithStatement models a long-running server: sessions
// parse their own copies of the same statement texts and optimize them on
// one shared optimizer. Each statement is analyzed once however often it is
// optimized, and once its session drops it the optimizer holds nothing of
// it: every dropped statement is collected.
func TestAnalysisLivesWithStatement(t *testing.T) {
	o := newOpt(testCatalog())
	texts := []string{
		"SELECT id FROM t WHERE x = 42",
		"SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a",
		"SELECT d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 17",
		"UPDATE t SET a = 1 WHERE x = 5",
		"DELETE FROM t WHERE x = 6",
	}
	const sessions = 64
	var collected atomic.Int64
	session := func() {
		for _, text := range texts {
			stmt := sqlparser.MustParse(text)
			first, err := o.analyze(stmt)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				if _, err := o.Optimize(stmt, nil); err != nil {
					t.Fatal(err)
				}
			}
			if q, _ := o.analyze(stmt); q != first {
				t.Fatalf("%s: analyzed again", text)
			}
			// The WHERE node is reachable only through the statement (and
			// its analysis), and not from itself, so its finalizer runs
			// once the statement is unreachable.
			var where sqlparser.Expr
			switch s := stmt.(type) {
			case *sqlparser.Select:
				where = s.Where
			case *sqlparser.Update:
				where = s.Where
			case *sqlparser.Delete:
				where = s.Where
			}
			runtime.SetFinalizer(where, func(any) { collected.Add(1) })
		}
	}
	for s := 0; s < sessions; s++ {
		session()
	}
	want := int64(sessions * len(texts))
	for i := 0; i < 200 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d dropped statements collected: the optimizer holds the rest", got, want)
	}
}

// TestAnalysisMemoKeys pins what a memoized analysis is reused for: the
// same statement node under the same catalog. Another catalog, or a copy of
// the statement value (which carries the memo slot along), is analyzed
// afresh.
func TestAnalysisMemoKeys(t *testing.T) {
	o, other := newOpt(testCatalog()), newOpt(testCatalog())
	stmt := sqlparser.MustParse("SELECT id FROM t WHERE x = 42").(*sqlparser.Select)
	q, err := o.analyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := other.analyze(stmt)
	if err != nil || q2 == q || q2.Stmt != stmt {
		t.Fatalf("another catalog reused the analysis (err %v)", err)
	}
	cp := new(sqlparser.Select)
	*cp = *stmt
	q3, err := other.analyze(cp)
	if err != nil || q3 == q2 || q3.Stmt != cp {
		t.Fatalf("a statement copy reused the original's analysis (err %v)", err)
	}
}
