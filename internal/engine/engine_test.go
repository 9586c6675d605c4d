package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
)

// buildTestDB creates orders (1000 rows) and customers (100 rows) with
// deterministic contents.
func buildTestDB(t *testing.T) *Database {
	t.Helper()
	cat := catalog.New()
	d := catalog.NewDatabase("db")
	d.AddTable(catalog.NewTable("db", "orders", 0,
		&catalog.Column{Name: "o_id", Type: catalog.TypeInt, Width: 8, Distinct: 1000, Min: 0, Max: 999},
		&catalog.Column{Name: "o_cust", Type: catalog.TypeInt, Width: 8, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "o_amount", Type: catalog.TypeFloat, Width: 8, Distinct: 500, Min: 0, Max: 499},
		&catalog.Column{Name: "o_day", Type: catalog.TypeDate, Width: 8, Distinct: 365, Min: 0, Max: 364},
		&catalog.Column{Name: "o_status", Type: catalog.TypeString, Width: 10, Distinct: 3, Min: 0, Max: 2},
	))
	d.AddTable(catalog.NewTable("db", "customers", 0,
		&catalog.Column{Name: "c_id", Type: catalog.TypeInt, Width: 8, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "c_name", Type: catalog.TypeString, Width: 20, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "c_region", Type: catalog.TypeInt, Width: 8, Distinct: 4, Min: 0, Max: 3},
	))
	cat.AddDatabase(d)
	db := NewDatabase(cat)

	statuses := []string{"open", "paid", "void"}
	var orows [][]Value
	for i := 0; i < 1000; i++ {
		orows = append(orows, []Value{
			Num(float64(i)), Num(float64(i % 100)), Num(float64((i * 7) % 500)),
			Num(float64(i % 365)), Str(statuses[i%3]),
		})
	}
	if err := db.Load("orders", orows); err != nil {
		t.Fatal(err)
	}
	var crows [][]Value
	for i := 0; i < 100; i++ {
		crows = append(crows, []Value{Num(float64(i)), Str(fmt.Sprintf("cust%03d", i)), Num(float64(i % 4))})
	}
	if err := db.Load("customers", crows); err != nil {
		t.Fatal(err)
	}
	db.SyncRowCounts()
	return db
}

func mustPrep(t *testing.T, db *Database, cfg *catalog.Configuration) *Prepared {
	t.Helper()
	p, err := db.Materialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rowsOf(t *testing.T, p *Prepared, sql string) [][]Value {
	t.Helper()
	res, err := p.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	return res.Rows
}

func TestBasicSelect(t *testing.T) {
	db := buildTestDB(t)
	p := mustPrep(t, db, nil)

	rows := rowsOf(t, p, "SELECT o_id FROM orders WHERE o_cust = 5 ORDER BY o_id")
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if rows[0][0].F != 5 || rows[9][0].F != 905 {
		t.Fatalf("unexpected ids: %v ... %v", rows[0], rows[9])
	}

	rows = rowsOf(t, p, "SELECT COUNT(*) FROM orders WHERE o_status = 'paid'")
	if len(rows) != 1 || rows[0][0].F != 333 {
		t.Fatalf("count(paid) = %v", rows)
	}

	rows = rowsOf(t, p, "SELECT COUNT(*) FROM orders WHERE o_status LIKE 'p%'")
	if rows[0][0].F != 333 {
		t.Fatalf("LIKE count = %v", rows)
	}
}

func TestJoinGroupOrder(t *testing.T) {
	db := buildTestDB(t)
	p := mustPrep(t, db, nil)
	rows := rowsOf(t, p, `SELECT c.c_region, COUNT(*), SUM(o.o_amount)
		FROM orders o JOIN customers c ON o.o_cust = c.c_id
		WHERE o.o_day < 100 GROUP BY c.c_region ORDER BY c.c_region`)
	if len(rows) != 4 {
		t.Fatalf("regions = %d, want 4", len(rows))
	}
	var totalCnt float64
	for _, r := range rows {
		totalCnt += r[1].F
	}
	// o_day = i % 365 < 100: i in [0,99] ∪ [365,464] ∪ [730,829] → 300 rows.
	if totalCnt != 300 {
		t.Fatalf("total count = %g, want 300", totalCnt)
	}
	// Regions ordered ascending.
	for i := 1; i < len(rows); i++ {
		if rows[i][0].F < rows[i-1][0].F {
			t.Fatal("regions not ordered")
		}
	}
}

func TestHavingDistinctTop(t *testing.T) {
	db := buildTestDB(t)
	p := mustPrep(t, db, nil)

	rows := rowsOf(t, p, "SELECT o_cust, COUNT(*) FROM orders GROUP BY o_cust HAVING COUNT(*) > 9")
	if len(rows) != 100 { // every customer has exactly 10 orders
		t.Fatalf("having rows = %d", len(rows))
	}
	rows = rowsOf(t, p, "SELECT o_cust, COUNT(*) FROM orders GROUP BY o_cust HAVING COUNT(*) > 10")
	if len(rows) != 0 {
		t.Fatalf("having rows = %d, want 0", len(rows))
	}
	rows = rowsOf(t, p, "SELECT DISTINCT o_status FROM orders")
	if len(rows) != 3 {
		t.Fatalf("distinct = %d", len(rows))
	}
	rows = rowsOf(t, p, "SELECT TOP 5 o_id FROM orders ORDER BY o_amount DESC, o_id")
	if len(rows) != 5 {
		t.Fatalf("top = %d", len(rows))
	}
}

func TestAggregatesAndArithmetic(t *testing.T) {
	db := buildTestDB(t)
	p := mustPrep(t, db, nil)
	rows := rowsOf(t, p, "SELECT SUM(o_amount * 2), AVG(o_amount), MIN(o_amount), MAX(o_amount) FROM orders WHERE o_cust = 0")
	if len(rows) != 1 {
		t.Fatal("scalar aggregate should yield one row")
	}
	// Customer 0 has orders i = 0,100,...,900 with amount (i*7)%500.
	var sum, minV, maxV float64
	minV, maxV = 1e18, -1e18
	for i := 0; i < 1000; i += 100 {
		a := float64((i * 7) % 500)
		sum += a
		if a < minV {
			minV = a
		}
		if a > maxV {
			maxV = a
		}
	}
	if rows[0][0].F != 2*sum || rows[0][1].F != sum/10 || rows[0][2].F != minV || rows[0][3].F != maxV {
		t.Fatalf("aggregates wrong: %v (sum=%g)", rows[0], sum)
	}
}

// TestConfigurationInvariance is the engine's central correctness property:
// query results must not depend on the physical configuration.
func TestConfigurationInvariance(t *testing.T) {
	db := buildTestDB(t)
	queries := []string{
		"SELECT o_id FROM orders WHERE o_cust = 7 ORDER BY o_id",
		"SELECT o_cust, COUNT(*), SUM(o_amount) FROM orders WHERE o_day BETWEEN 10 AND 50 GROUP BY o_cust ORDER BY o_cust",
		"SELECT c.c_name, SUM(o.o_amount) FROM orders o JOIN customers c ON o.o_cust = c.c_id GROUP BY c.c_name ORDER BY c.c_name",
		"SELECT COUNT(*) FROM orders WHERE o_status = 'open' AND o_day < 200",
		"SELECT o_status, AVG(o_amount) FROM orders GROUP BY o_status ORDER BY o_status",
		"SELECT TOP 7 o_id, o_amount FROM orders WHERE o_amount > 400 ORDER BY o_amount DESC, o_id",
	}

	raw := mustPrep(t, db, nil)
	baseline := make([][][]Value, len(queries))
	for i, q := range queries {
		baseline[i] = rowsOf(t, raw, q)
	}

	cfgs := []*catalog.Configuration{}
	// Indexed.
	c1 := catalog.NewConfiguration()
	c1.AddIndex(catalog.NewIndex("orders", "o_cust").WithInclude("o_amount"))
	c1.AddIndex(catalog.NewIndex("orders", "o_day"))
	c1.AddIndex(catalog.NewIndex("customers", "c_id"))
	cfgs = append(cfgs, c1)
	// Clustered + partitioned.
	c2 := catalog.NewConfiguration()
	cix := catalog.NewIndex("orders", "o_day")
	cix.Clustered = true
	c2.AddIndex(cix)
	c2.SetTablePartitioning("orders", catalog.NewPartitionScheme("o_day", 100, 200, 300))
	cfgs = append(cfgs, c2)
	// Materialized views.
	c3 := catalog.NewConfiguration()
	c3.AddView(catalog.NewMaterializedView([]string{"orders"}, nil,
		nil,
		[]catalog.ColRef{catalog.NewColRef("orders", "o_status")},
		[]catalog.Agg{{Func: "AVG", Col: catalog.NewColRef("orders", "o_amount")}, {Func: "COUNT"}, {Func: "SUM", Col: catalog.NewColRef("orders", "o_amount")}},
		3))
	cfgs = append(cfgs, c3)

	for ci, cfg := range cfgs {
		p := mustPrep(t, db, cfg)
		for qi, q := range queries {
			got := rowsOf(t, p, q)
			if !reflect.DeepEqual(got, baseline[qi]) {
				t.Errorf("config %d changes result of %q:\n got %v\nwant %v", ci, q, got, baseline[qi])
			}
		}
	}
}

func TestViewIsActuallyUsed(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.AddView(catalog.NewMaterializedView([]string{"orders"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("orders", "o_status")},
		[]catalog.Agg{{Func: "COUNT"}},
		3))
	p := mustPrep(t, db, cfg)
	res, err := p.ExecSQL("SELECT o_status, COUNT(*) FROM orders GROUP BY o_status")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ViewsScanned != 1 {
		t.Fatalf("view should serve the query: %+v", res.Stats)
	}
	if res.Stats.RowsScanned > 10 {
		t.Fatalf("view path should touch few rows, scanned %d", res.Stats.RowsScanned)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestIndexReducesRowsScanned(t *testing.T) {
	db := buildTestDB(t)
	raw := mustPrep(t, db, nil)
	r1, err := raw.ExecSQL("SELECT o_id FROM orders WHERE o_cust = 3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("orders", "o_cust"))
	p := mustPrep(t, db, cfg)
	r2, err := p.ExecSQL("SELECT o_id FROM orders WHERE o_cust = 3")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.IndexSeeks == 0 {
		t.Fatal("expected an index seek")
	}
	if r2.Stats.RowsScanned >= r1.Stats.RowsScanned {
		t.Fatalf("seek should scan fewer rows: %d vs %d", r2.Stats.RowsScanned, r1.Stats.RowsScanned)
	}
	if len(r2.Rows) != len(r1.Rows) {
		t.Fatal("results must agree")
	}
}

func TestPartitionEliminationReducesScan(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.SetTablePartitioning("orders", catalog.NewPartitionScheme("o_day", 100, 200, 300))
	p := mustPrep(t, db, cfg)
	res, err := p.ExecSQL("SELECT COUNT(*) FROM orders WHERE o_day BETWEEN 120 AND 150")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsScanned >= 1000 {
		t.Fatalf("elimination should skip partitions: scanned %d", res.Stats.RowsScanned)
	}
	if res.Rows[0][0].F == 0 {
		t.Fatal("result should be non-empty")
	}
}

func TestDML(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("orders", "o_cust"))
	cfg.AddView(catalog.NewMaterializedView([]string{"orders"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("orders", "o_cust")},
		[]catalog.Agg{{Func: "COUNT"}},
		100))
	p := mustPrep(t, db, cfg)

	// Insert.
	res, err := p.ExecSQL("INSERT INTO orders VALUES (5000, 5, 123, 40, 'open')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 || res.Stats.RowsMaintained == 0 {
		t.Fatalf("insert: %+v", res)
	}
	rows := rowsOf(t, p, "SELECT COUNT(*) FROM orders WHERE o_cust = 5")
	if rows[0][0].F != 11 {
		t.Fatalf("after insert count = %v", rows[0][0])
	}
	// The view reflects the insert (stale → rebuilt on access).
	rows = rowsOf(t, p, "SELECT o_cust, COUNT(*) FROM orders GROUP BY o_cust ORDER BY o_cust")
	if rows[5][1].F != 11 {
		t.Fatalf("view after insert = %v", rows[5])
	}

	// Update moving an index key.
	res, err = p.ExecSQL("UPDATE orders SET o_cust = 6 WHERE o_id = 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	rows = rowsOf(t, p, "SELECT COUNT(*) FROM orders WHERE o_cust = 5")
	if rows[0][0].F != 10 {
		t.Fatalf("after update count(5) = %v", rows[0][0])
	}
	rows = rowsOf(t, p, "SELECT COUNT(*) FROM orders WHERE o_cust = 6")
	if rows[0][0].F != 11 {
		t.Fatalf("after update count(6) = %v", rows[0][0])
	}

	// Delete.
	res, err = p.ExecSQL("DELETE FROM orders WHERE o_id = 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	rows = rowsOf(t, p, "SELECT COUNT(*) FROM orders")
	if rows[0][0].F != 1000 {
		t.Fatalf("after delete total = %v", rows[0][0])
	}
}

func TestJoinViewMaterializationAndUse(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.AddView(catalog.NewMaterializedView(
		[]string{"orders", "customers"},
		[]catalog.JoinPred{{Left: catalog.NewColRef("orders", "o_cust"), Right: catalog.NewColRef("customers", "c_id")}},
		nil,
		[]catalog.ColRef{catalog.NewColRef("customers", "c_region")},
		[]catalog.Agg{{Func: "SUM", Col: catalog.NewColRef("orders", "o_amount")}, {Func: "COUNT"}},
		4))
	p := mustPrep(t, db, cfg)

	raw := mustPrep(t, db, nil)
	q := "SELECT c.c_region, SUM(o.o_amount) FROM orders o JOIN customers c ON o.o_cust = c.c_id GROUP BY c.c_region ORDER BY c.c_region"
	want := rowsOf(t, raw, q)
	res, err := p.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ViewsScanned != 1 {
		t.Fatalf("join view should serve the query: %+v", res.Stats)
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("view answer differs:\n got %v\nwant %v", res.Rows, want)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abcabc", "%abc", true},
		{"abcabc", "a%c", true},
		{"Hello", "hello", true}, // case-insensitive like SQL Server default
	}
	for _, tc := range cases {
		if got := matchLike(tc.s, tc.p); got != tc.want {
			t.Errorf("matchLike(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

func TestSamplerStats(t *testing.T) {
	db := buildTestDB(t)
	s := NewSampler(db)
	vals := s.SampleColumn("orders", "o_cust", 500)
	if len(vals) == 0 {
		t.Fatal("no samples")
	}
	rows := s.SampleRows("orders", []string{"o_cust", "o_day"}, 500)
	if len(rows) == 0 || len(rows[0]) != 2 {
		t.Fatalf("rows = %v", rows[:1])
	}
	if s.SampleColumn("orders", "nope", 10) != nil {
		t.Fatal("unknown column should return nil")
	}
	if s.SampleColumn("nope", "x", 10) != nil {
		t.Fatal("unknown table should return nil")
	}
}

func TestSeekRandomizedAgainstScan(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("orders", "o_amount"))
	p := mustPrep(t, db, cfg)
	raw := mustPrep(t, db, nil)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 25; i++ {
		lo := rng.Intn(500)
		hi := lo + rng.Intn(100)
		q := fmt.Sprintf("SELECT COUNT(*) FROM orders WHERE o_amount BETWEEN %d AND %d", lo, hi)
		a := rowsOf(t, raw, q)
		b := rowsOf(t, p, q)
		if a[0][0].F != b[0][0].F {
			t.Fatalf("range [%d,%d]: scan=%g seek=%g", lo, hi, a[0][0].F, b[0][0].F)
		}
	}
}

// TestMaterializeBadPartitioningsErrorIsStable: a configuration carrying
// three invalid table partitionings fails with the same error on every
// call — partitionings are checked and built in table-name order, not map
// order.
func TestMaterializeBadPartitioningsErrorIsStable(t *testing.T) {
	db := buildTestDB(t)
	cfg := catalog.NewConfiguration()
	cfg.SetTablePartitioning("orders", catalog.NewPartitionScheme("nope", 1))
	cfg.SetTablePartitioning("customers", catalog.NewPartitionScheme("nope", 1))
	cfg.SetTablePartitioning("zeta", catalog.NewPartitionScheme("nope", 1))
	_, first := db.Materialize(cfg)
	if first == nil {
		t.Fatal("invalid partitionings must not materialize")
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Materialize(cfg); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: error %v, want %v", i, err, first)
		}
	}
}
