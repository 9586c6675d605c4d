package core

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// testServer builds a production server with a fact table t (200k rows) and
// dimension d (5k rows), data attached so statistics can be created.
func testServer(tb testing.TB) *whatif.Server {
	tb.Helper()
	cat := catalog.New()
	db := catalog.NewDatabase("db")
	db.AddTable(catalog.NewTable("db", "t", 0,
		&catalog.Column{Name: "id", Type: catalog.TypeInt, Width: 8, Distinct: 200000, Min: 0, Max: 199999},
		&catalog.Column{Name: "x", Type: catalog.TypeInt, Width: 8, Distinct: 10000, Min: 0, Max: 9999},
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 5000, Min: 0, Max: 4999},
		&catalog.Column{Name: "amt", Type: catalog.TypeFloat, Width: 8, Distinct: 1000, Min: 0, Max: 999},
		&catalog.Column{Name: "pad", Type: catalog.TypeString, Width: 80, Distinct: 200000, Min: 0, Max: 199999},
	))
	db.AddTable(catalog.NewTable("db", "d", 0,
		&catalog.Column{Name: "d_id", Type: catalog.TypeInt, Width: 8, Distinct: 5000, Min: 0, Max: 4999},
		&catalog.Column{Name: "grp", Type: catalog.TypeInt, Width: 8, Distinct: 20, Min: 0, Max: 19},
		&catalog.Column{Name: "name", Type: catalog.TypeString, Width: 24, Distinct: 5000, Min: 0, Max: 4999},
	))
	cat.AddDatabase(db)

	data := engine.NewDatabase(cat)
	const rows = 200000
	trows := make([][]engine.Value, 0, rows)
	for i := 0; i < rows; i++ {
		trows = append(trows, []engine.Value{
			engine.Num(float64(i)),
			engine.Num(float64((i * 37) % 10000)),
			engine.Num(float64(i % 100)),
			engine.Num(float64(i % 5000)),
			engine.Num(float64((i * 13) % 1000)),
			engine.Str(fmt.Sprintf("pad%06d", i)),
		})
	}
	if err := data.Load("t", trows); err != nil {
		tb.Fatal(err)
	}
	drows := make([][]engine.Value, 0, 5000)
	for i := 0; i < 5000; i++ {
		drows = append(drows, []engine.Value{
			engine.Num(float64(i)), engine.Num(float64(i % 20)), engine.Str(fmt.Sprintf("dim%04d", i)),
		})
	}
	if err := data.Load("d", drows); err != nil {
		tb.Fatal(err)
	}

	s := whatif.NewServer("prod", cat, optimizer.DefaultHardware())
	s.AttachData(data)
	return s
}

func TestTuneRecommendsIndexForSelectiveLookup(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 42",
		"SELECT id FROM t WHERE x = 99",
		"SELECT id FROM t WHERE x = 7",
	)
	rec, err := Tune(s, w, Options{Features: FeatureIndexes})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement < 0.5 {
		t.Fatalf("expected big improvement, got %.2f%%: %v", 100*rec.Improvement, rec.NewStructures)
	}
	foundX := false
	for _, st := range rec.NewStructures {
		if st.Index != nil && st.Index.KeyColumns[0] == "x" {
			foundX = true
		}
		if st.View != nil || st.Part != nil {
			t.Fatalf("feature mask violated: %s", st)
		}
	}
	if !foundX {
		t.Fatalf("expected an index leading on x, got %v", rec.NewStructures)
	}
	if err := rec.Config.Validate(s.Cat); err != nil {
		t.Fatalf("recommendation invalid: %v", err)
	}
	if len(rec.Reports) != w.Len() {
		t.Fatalf("reports = %d", len(rec.Reports))
	}
}

func TestTuneIntegratedCoversPaperExample1(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew("SELECT a, COUNT(*) FROM t WHERE x < 10 GROUP BY a")
	rec, err := Tune(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatalf("some structure must help Example 1: %+v", rec)
	}
	if len(rec.NewStructures) == 0 {
		t.Fatal("expected structures")
	}
}

func TestStorageBudgetRespected(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id, pad FROM t WHERE x BETWEEN 10 AND 4000",
		"SELECT a, SUM(amt) FROM t GROUP BY a",
		"SELECT id FROM t WHERE d_id = 7",
	)
	budget := int64(1 << 20) // 1 MB: essentially only non-redundant structures fit
	rec, err := Tune(s, w, Options{StorageBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rec.StorageBytes > budget {
		t.Fatalf("budget violated: %d > %d", rec.StorageBytes, budget)
	}
	// Unbounded tuning on the same workload may use more storage.
	rec2, err := Tune(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Cost > rec.Cost {
		t.Fatalf("unbounded should be at least as good: %.1f vs %.1f", rec2.Cost, rec.Cost)
	}
}

func TestAlignmentConstraint(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id, amt FROM t WHERE x BETWEEN 100 AND 300",
		"SELECT a, COUNT(*) FROM t WHERE x < 2000 GROUP BY a",
		"SELECT id FROM t WHERE x = 5",
	)
	rec, err := Tune(s, w, Options{Features: FeatureIndexes | FeaturePartitioning, Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Config.Aligned() {
		t.Fatalf("aligned tuning must produce an aligned design: %v", rec.NewStructures)
	}
	// Unaligned tuning is at least as good (alignment constrains the space).
	rec2, err := Tune(s, w, Options{Features: FeatureIndexes | FeaturePartitioning})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Cost > rec.Cost*1.001 {
		t.Fatalf("unconstrained should not be worse: %.1f vs %.1f", rec2.Cost, rec.Cost)
	}
}

func TestUserConfigHonored(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew("SELECT id FROM t WHERE x = 5")
	user := catalog.NewConfiguration()
	user.SetTablePartitioning("t", catalog.NewPartitionScheme("a", 50))
	rec, err := Tune(s, w, Options{UserConfig: user})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Config.TablePartitioning("t").Same(user.TablePartitioning("t")) {
		t.Fatal("user-specified partitioning must be honored")
	}

	bad := catalog.NewConfiguration()
	bad.AddIndex(catalog.NewIndex("t", "nosuchcol"))
	if _, err := Tune(s, w, Options{UserConfig: bad}); err == nil {
		t.Fatal("invalid user configuration must be rejected")
	}
}

func TestEvaluateMode(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"UPDATE t SET amt = 1 WHERE id = 5",
		"UPDATE t SET amt = 2 WHERE id = 9",
	)
	// An index on id helps the updates find rows...
	good := catalog.NewConfiguration()
	good.AddIndex(catalog.NewIndex("t", "id"))
	rec, err := Evaluate(s, w, nil, good)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatalf("index on id should help updates: %+v", rec.Improvement)
	}
	// ...whereas a pile of irrelevant wide indexes only costs maintenance.
	bad := catalog.NewConfiguration()
	bad.AddIndex(catalog.NewIndex("t", "amt").WithInclude("pad", "x", "a"))
	rec2, err := Evaluate(s, w, nil, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Improvement >= 0 {
		t.Fatalf("maintenance-only structures must evaluate negatively: %v", rec2.Improvement)
	}
}

func TestUpdateHeavyWorkloadGetsNoHarmfulStructures(t *testing.T) {
	s := testServer(t)
	// CUST3 shape (§7.1): updates dominate; DTA should recommend nothing
	// harmful and never be worse than raw.
	var sqls []string
	for i := 0; i < 30; i++ {
		sqls = append(sqls, fmt.Sprintf("UPDATE t SET amt = %d WHERE id = %d", i, i*100))
		sqls = append(sqls, fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 2, 3, 4, 'p')", 500000+i))
	}
	w := workload.MustNew(sqls...)
	rec, err := Tune(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement < 0 {
		t.Fatalf("recommendation must never be worse than raw: %v", rec.Improvement)
	}
	for _, st := range rec.NewStructures {
		if st.View != nil {
			t.Fatalf("views on an update-heavy workload: %s", st)
		}
	}
}

func TestCompressionReducesTuningWork(t *testing.T) {
	s := testServer(t)
	var sqls []string
	for i := 0; i < 300; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id FROM t WHERE x = %d", i*3))
	}
	w := workload.MustNew(sqls...)

	recC, err := Tune(s, w, Options{Features: FeatureIndexes})
	if err != nil {
		t.Fatal(err)
	}
	if !recC.Compressed || recC.EventsTuned >= 50 {
		t.Fatalf("compression should kick in: %+v", recC.EventsTuned)
	}

	recN, err := Tune(s, w, Options{Features: FeatureIndexes, NoCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	if recN.EventsTuned != 300 {
		t.Fatalf("uncompressed should tune all events: %d", recN.EventsTuned)
	}
	if recC.WhatIfCalls >= recN.WhatIfCalls {
		t.Fatalf("compression should save what-if calls: %d vs %d", recC.WhatIfCalls, recN.WhatIfCalls)
	}
	// Quality is essentially unchanged (§7.4): same improvement ±2%.
	if recN.Improvement-recC.Improvement > 0.02 {
		t.Fatalf("compression cost too much quality: %.3f vs %.3f", recC.Improvement, recN.Improvement)
	}
}

func TestIntegratedBeatsOrMatchesStaged(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT a, COUNT(*) FROM t WHERE x < 5000 GROUP BY a",
		"SELECT id FROM t WHERE x BETWEEN 100 AND 200",
	)
	integrated, err := Tune(s, w, Options{Features: FeatureIndexes | FeaturePartitioning})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := TuneStaged(s, w, Options{Features: FeatureIndexes | FeaturePartitioning},
		[]FeatureMask{FeatureIndexes, FeaturePartitioning})
	if err != nil {
		t.Fatal(err)
	}
	if integrated.Cost > staged.Cost*1.001 {
		t.Fatalf("integrated must not lose to staged: %.1f vs %.1f", integrated.Cost, staged.Cost)
	}
}

// TestStagedCountsEveryCall: a staged tune reports every what-if call it
// issued — each stage's and the final rebase against the original base
// configuration — so its WhatIfCalls equals the backend's own count.
func TestStagedCountsEveryCall(t *testing.T) {
	s := testServer(t)
	before := s.WhatIfCallCount()
	rec, err := TuneStaged(s, lookupWorkload(12), Options{NoCompression: true, Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if served := s.WhatIfCallCount() - before; rec.WhatIfCalls != served {
		t.Fatalf("staged tune reports %d what-if calls, the backend served %d", rec.WhatIfCalls, served)
	}
}

func TestITWBaseline(t *testing.T) {
	s := testServer(t)
	var sqls []string
	for i := 0; i < 60; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT id FROM t WHERE x = %d", i*7))
		sqls = append(sqls, fmt.Sprintf("SELECT a, SUM(amt) FROM t WHERE x < %d GROUP BY a", 100+i))
	}
	w := workload.MustNew(sqls...)

	dta, err := Tune(s, w, Options{Features: FeatureIndexes | FeatureViews})
	if err != nil {
		t.Fatal(err)
	}
	s2 := testServer(t)
	itw, err := TuneITW(s2, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if itw.EventsTuned != w.Len() {
		t.Fatalf("ITW must tune the whole workload: %d", itw.EventsTuned)
	}
	if dta.WhatIfCalls >= itw.WhatIfCalls {
		t.Fatalf("DTA should issue fewer what-if calls: %d vs %d", dta.WhatIfCalls, itw.WhatIfCalls)
	}
	if itw.Improvement-dta.Improvement > 0.05 {
		t.Fatalf("DTA quality should be comparable: dta=%.3f itw=%.3f", dta.Improvement, itw.Improvement)
	}
	for _, st := range itw.NewStructures {
		if st.Part != nil {
			t.Fatal("ITW cannot recommend partitioning")
		}
	}
}

func TestGreedyMKSeedOptimality(t *testing.T) {
	// With m = len(candidates), Greedy(m,k) is exhaustive; its result must
	// be at least as good as any single-seed greedy run.
	s := testServer(t)
	w := workload.MustNew("SELECT id, amt FROM t WHERE x = 3 AND a = 7")
	recSmall, err := Tune(s, w, Options{Features: FeatureIndexes, GreedyM: 1, GreedyK: 4})
	if err != nil {
		t.Fatal(err)
	}
	recBig, err := Tune(s, w, Options{Features: FeatureIndexes, GreedyM: 2, GreedyK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if recBig.Cost > recSmall.Cost*1.001 {
		t.Fatalf("larger seed must not hurt: %.2f vs %.2f", recBig.Cost, recSmall.Cost)
	}
}

func TestAllowDropsRemovesHarmfulStructures(t *testing.T) {
	s := testServer(t)
	// Update-only workload: every extra index is pure maintenance.
	var sqls []string
	for i := 0; i < 20; i++ {
		sqls = append(sqls, fmt.Sprintf("UPDATE t SET amt = %d, x = %d WHERE id = %d", i, i*2, i*50))
	}
	w := workload.MustNew(sqls...)

	base := catalog.NewConfiguration()
	pk := catalog.NewIndex("t", "id")
	pk.Clustered = true
	pk.FromConstraint = true
	base.AddIndex(pk)
	base.AddIndex(catalog.NewIndex("t", "x").WithInclude("pad", "amt")) // harmful
	base.AddIndex(catalog.NewIndex("t", "amt"))                         // harmful

	// Without AllowDrops the harmful indexes stay.
	recKeep, err := Tune(s, w, Options{BaseConfig: base})
	if err != nil {
		t.Fatal(err)
	}
	if len(recKeep.DroppedStructures) != 0 {
		t.Fatal("drops must be off by default")
	}
	if len(recKeep.Config.IndexesOn("t")) < 3 {
		t.Fatal("existing structures must be kept by default")
	}

	// With AllowDrops they go, and the improvement reflects it.
	recDrop, err := Tune(s, w, Options{BaseConfig: base, AllowDrops: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recDrop.DroppedStructures) != 2 {
		t.Fatalf("expected both harmful indexes dropped, got %v", recDrop.DroppedStructures)
	}
	for _, d := range recDrop.DroppedStructures {
		if d.Index != nil && d.Index.FromConstraint {
			t.Fatal("constraint structures must never be dropped")
		}
	}
	if recDrop.Improvement <= 0 {
		t.Fatalf("dropping maintenance-only indexes must improve: %v", recDrop.Improvement)
	}
	if recDrop.Improvement <= recKeep.Improvement {
		t.Fatalf("drops should beat keep-everything: %.3f vs %.3f", recDrop.Improvement, recKeep.Improvement)
	}
	if recDrop.Config.ClusteredIndex("t") == nil {
		t.Fatal("the constraint clustered index must remain")
	}
}

func TestTuneAcrossMultipleDatabases(t *testing.T) {
	// Paper §2.1: "Many applications use more than one database, and
	// therefore, ability to tune multiple databases simultaneously is
	// important." One server, two databases, one workload touching both.
	cat := catalog.New()
	sales := catalog.NewDatabase("sales")
	sales.AddTable(catalog.NewTable("sales", "orders", 0,
		&catalog.Column{Name: "oid", Type: catalog.TypeInt, Width: 8, Distinct: 50000, Min: 1, Max: 50000},
		&catalog.Column{Name: "ocust", Type: catalog.TypeInt, Width: 8, Distinct: 5000, Min: 1, Max: 5000},
		&catalog.Column{Name: "ototal", Type: catalog.TypeFloat, Width: 8, Distinct: 1000, Min: 1, Max: 1000},
	))
	cat.AddDatabase(sales)
	hr := catalog.NewDatabase("hr")
	hr.AddTable(catalog.NewTable("hr", "staff", 0,
		&catalog.Column{Name: "sid", Type: catalog.TypeInt, Width: 8, Distinct: 2000, Min: 1, Max: 2000},
		&catalog.Column{Name: "dept", Type: catalog.TypeInt, Width: 8, Distinct: 40, Min: 1, Max: 40},
		&catalog.Column{Name: "pay", Type: catalog.TypeFloat, Width: 8, Distinct: 500, Min: 1, Max: 500},
	))
	cat.AddDatabase(hr)

	data := engine.NewDatabase(cat)
	var orows, srows [][]engine.Value
	for i := 0; i < 50000; i++ {
		orows = append(orows, []engine.Value{
			engine.Num(float64(i + 1)), engine.Num(float64(i%5000 + 1)), engine.Num(float64(i%1000 + 1)),
		})
	}
	for i := 0; i < 2000; i++ {
		srows = append(srows, []engine.Value{
			engine.Num(float64(i + 1)), engine.Num(float64(i%40 + 1)), engine.Num(float64(i%500 + 1)),
		})
	}
	if err := data.Load("orders", orows); err != nil {
		t.Fatal(err)
	}
	if err := data.Load("staff", srows); err != nil {
		t.Fatal(err)
	}
	s := whatif.NewServer("prod", cat, optimizer.DefaultHardware())
	s.AttachData(data)

	w := workload.MustNew(
		"SELECT oid FROM orders WHERE ocust = 99",
		"SELECT dept, SUM(pay) FROM staff GROUP BY dept",
		"SELECT oid FROM orders WHERE ocust = 7",
	)
	rec, err := Tune(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Improvement <= 0 {
		t.Fatal("cross-database tuning should find improvements")
	}
	tables := map[string]bool{}
	for _, st := range rec.NewStructures {
		if st.Index != nil {
			tables[st.Index.Table] = true
		}
		if st.View != nil {
			for _, tn := range st.View.Tables {
				tables[tn] = true
			}
		}
		if st.Part != nil {
			tables[st.PartTable] = true
		}
	}
	if !tables["orders"] || !tables["staff"] {
		t.Fatalf("both databases should receive structures: %v", tables)
	}
}

func TestSkippedEventsDoNotFailTuning(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 7",
		"SELECT something FROM not_a_table WHERE q = 1", // unresolvable
		"SELECT id FROM t WHERE x = 9",
	)
	rec, err := Tune(s, w, Options{Features: FeatureIndexes})
	if err != nil {
		t.Fatalf("unresolvable statements must be skipped, not fatal: %v", err)
	}
	if rec.SkippedEvents != 1 {
		t.Fatalf("skipped = %d, want 1", rec.SkippedEvents)
	}
	if rec.EventsTuned != 2 {
		t.Fatalf("tuned = %d, want 2", rec.EventsTuned)
	}
	if rec.Improvement <= 0 {
		t.Fatal("the resolvable statements should still be tuned")
	}
	if len(rec.Reports) != 2 {
		t.Fatalf("reports = %d, want 2 (skipped events have no report)", len(rec.Reports))
	}
}

func TestUsageReport(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id FROM t WHERE x = 1",
		"SELECT id FROM t WHERE x = 2",
		"SELECT id FROM t WHERE a = 3",
	)
	rec, err := Tune(s, w, Options{Features: FeatureIndexes})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Usage) == 0 {
		t.Fatal("usage report missing")
	}
	// Sorted by weighted uses, shares within [0,1].
	for i, u := range rec.Usage {
		if u.CostShare < 0 || u.CostShare > 1 {
			t.Fatalf("cost share out of range: %+v", u)
		}
		if i > 0 && u.WeightedUses > rec.Usage[i-1].WeightedUses {
			t.Fatal("usage not sorted")
		}
	}
	// The x-index serves two events, the a-index one.
	if rec.Usage[0].Queries < 2 {
		t.Fatalf("top structure should serve ≥ 2 queries: %+v", rec.Usage[0])
	}
}

func TestViewRecommendedForAggregateWorkload(t *testing.T) {
	s := testServer(t)
	var sqls []string
	for i := 0; i < 5; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT d.grp, SUM(t.amt) FROM t JOIN d ON t.d_id = d.d_id WHERE d.grp = %d GROUP BY d.grp", i))
	}
	w := workload.MustNew(sqls...)
	rec, err := Tune(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hasView := false
	for _, st := range rec.NewStructures {
		if st.View != nil {
			hasView = true
		}
	}
	if !hasView {
		t.Fatalf("an aggregate join workload should get a view: %v (improvement %.2f)", rec.NewStructures, rec.Improvement)
	}
	if rec.Improvement < 0.9 {
		t.Fatalf("view should nearly eliminate the cost: %.3f", rec.Improvement)
	}
}
