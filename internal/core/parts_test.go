package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestMergeIndexes(t *testing.T) {
	a := catalog.NewIndex("t", "a", "b").WithInclude("x")
	b := catalog.NewIndex("t", "a", "c").WithInclude("y")
	m := mergeIndexes(a, b, 5)
	if m == nil {
		t.Fatal("merge should succeed")
	}
	if got := m.Key(); got != "ix:t(a,b,c) include(x,y)" {
		t.Fatalf("merged = %q", got)
	}
	// The merged index serves any seek the first parent serves (same key
	// prefix) and covers the union of both parents' columns.
	if m.KeyColumns[0] != a.KeyColumns[0] || m.KeyColumns[1] != a.KeyColumns[1] {
		t.Fatal("first parent's key must be a prefix of the merged key")
	}
	for _, col := range append(a.AllColumns(), b.AllColumns()...) {
		if !m.Covers([]string{col}) {
			t.Fatalf("merged index must cover %q", col)
		}
	}
	// Degenerate merges return nil.
	if mergeIndexes(a, catalog.NewIndex("t", "a", "b"), 5) != nil {
		t.Fatal("second index adding nothing should not merge")
	}
	if mergeIndexes(a, catalog.NewIndex("t", "c", "d", "e", "f"), 4) != nil {
		t.Fatal("too-wide merges must be rejected")
	}
}

func TestMergeIndexesCoverageProperty(t *testing.T) {
	cols := []string{"a", "b", "c", "d", "e"}
	f := func(ka, kb, ia, ib uint8) bool {
		mk := func(k, inc uint8) *catalog.Index {
			key := []string{cols[int(k)%len(cols)], cols[(int(k)+1)%len(cols)]}
			ix := catalog.NewIndex("t", key...)
			return ix.WithInclude(cols[int(inc)%len(cols)])
		}
		a, b := mk(ka, ia), mk(kb, ib)
		m := mergeIndexes(a, b, 10)
		if m == nil {
			return true // degenerate merge is allowed
		}
		for _, c := range append(a.AllColumns(), b.AllColumns()...) {
			if !m.Covers([]string{c}) {
				return false
			}
		}
		// Key columns must be unique.
		seen := map[string]bool{}
		for _, c := range m.KeyColumns {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeViews(t *testing.T) {
	cat := catalog.New()
	d := catalog.NewDatabase("db")
	d.AddTable(catalog.NewTable("db", "t", 100000,
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9},
		&catalog.Column{Name: "b", Type: catalog.TypeInt, Width: 8, Distinct: 20, Min: 0, Max: 19},
		&catalog.Column{Name: "x", Type: catalog.TypeFloat, Width: 8, Distinct: 1000, Min: 0, Max: 999},
	))
	cat.AddDatabase(d)

	va := catalog.NewMaterializedView([]string{"t"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "a")},
		[]catalog.Agg{{Func: "SUM", Col: catalog.NewColRef("t", "x")}}, 10)
	vb := catalog.NewMaterializedView([]string{"t"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "b")},
		[]catalog.Agg{{Func: "COUNT"}}, 20)
	m := mergeViews(cat, va, vb)
	if m == nil {
		t.Fatal("same-join grouped views must merge")
	}
	if len(m.GroupBy) != 2 || len(m.Aggs) != 2 {
		t.Fatalf("merged view = %s", m)
	}
	if m.Rows != 200 { // 10 × 20 distinct combinations
		t.Fatalf("merged rows = %d, want 200", m.Rows)
	}
	// The merged view answers both parents' queries.
	for _, q := range []string{
		"SELECT a, SUM(x) FROM t GROUP BY a",
		"SELECT b, COUNT(*) FROM t GROUP BY b",
	} {
		qi, err := optimizer.Analyze(cat, sqlparser.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := optimizer.MatchView(qi, m); !ok {
			t.Fatalf("merged view must answer %q", q)
		}
	}

	// Views over different joins do not merge.
	d.AddTable(catalog.NewTable("db", "u", 10,
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9}))
	vu := catalog.NewMaterializedView([]string{"t", "u"},
		[]catalog.JoinPred{{Left: catalog.NewColRef("t", "a"), Right: catalog.NewColRef("u", "a")}},
		nil, []catalog.ColRef{catalog.NewColRef("t", "a")}, []catalog.Agg{{Func: "COUNT"}}, 10)
	if mergeViews(cat, va, vu) != nil {
		t.Fatal("different table sets must not merge")
	}
}

func TestMergePartitionings(t *testing.T) {
	cat := catalog.New()
	cands := []catalog.Structure{
		{PartTable: "t", Part: catalog.NewPartitionScheme("x", 10, 20)},
		{PartTable: "t", Part: catalog.NewPartitionScheme("x", 15, 30)},
	}
	out := mergeCandidates(cat, cands, map[string]float64{}, Options{}.withDefaults(), nil)
	if len(out) != 3 {
		t.Fatalf("expected one merged scheme, got %d structures", len(out))
	}
	merged := out[2].Part
	if merged.Partitions() != 5 { // boundaries {10,15,20,30}
		t.Fatalf("merged partitions = %d", merged.Partitions())
	}
}

func TestCapCandidates(t *testing.T) {
	var cands []catalog.Structure
	benefit := map[string]float64{}
	for i, col := range []string{"a", "b", "c", "d", "e"} {
		s := catalog.Structure{Index: catalog.NewIndex("t", col)}
		cands = append(cands, s)
		benefit[s.Key()] = float64(i)
	}
	capped := capCandidates(cands, benefit, 2)
	if len(capped) != 2 {
		t.Fatalf("capped = %d", len(capped))
	}
	if capped[0].Index.KeyColumns[0] != "e" || capped[1].Index.KeyColumns[0] != "d" {
		t.Fatalf("highest benefit must survive: %v", capped)
	}
	if got := capCandidates(cands, benefit, -1); len(got) != len(cands) {
		t.Fatal("negative cap disables capping")
	}
}

// TestCapCandidatesKeepsInputOrderOnTies: equal-benefit candidates — a
// structure without a benefit entry counts as 0 — keep their input order,
// so the capped pool, and every search over it, is deterministic.
func TestCapCandidatesKeepsInputOrderOnTies(t *testing.T) {
	benefit := map[string]float64{}
	var cands []catalog.Structure
	for i, col := range []string{"e", "a", "d", "b", "c", "f", "g"} {
		s := catalog.Structure{Index: catalog.NewIndex("t", col)}
		cands = append(cands, s)
		if col != "g" {
			benefit[s.Key()] = float64(i % 2) // a, b, f: 1; e, d, c: 0
		}
	}
	var got []string
	for _, s := range capCandidates(cands, benefit, 5) {
		got = append(got, s.Index.KeyColumns[0])
	}
	if want := []string{"a", "b", "f", "e", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("capped = %v, want %v", got, want)
	}
}

// costTuner is a skeleton-less backend whose what-if cost is a synthetic
// function of the configuration, letting a test verify Greedy(m,k)
// behaviour exactly.
type costTuner struct {
	cat  *catalog.Catalog
	cost func(cfg *catalog.Configuration) float64
}

func (c costTuner) Catalog() *catalog.Catalog { return c.cat }
func (c costTuner) WhatIfCost(_ sqlparser.Statement, cfg *catalog.Configuration) (float64, []string, error) {
	return c.cost(cfg), nil, nil
}
func (c costTuner) EnsureStatistics([]stats.Request, bool) (int, error) { return 0, nil }
func (c costTuner) WhatIfCallCount() int64                              { return 0 }

// syntheticSearch runs greedySearch over a one-statement workload that
// references every column in its predicate, so every candidate index is
// relevant and the workload cost is exactly cost(cfg).
func syntheticSearch(cat *catalog.Catalog, sql string, cost func(*catalog.Configuration) float64, cands []catalog.Structure, o greedyOptions) ([]catalog.Structure, error) {
	ev := newEvaluator(costTuner{cat: cat, cost: cost}, workload.MustNew(sql), "")
	return greedySearch(ev, ev.all, catalog.NewConfiguration(), cands, o)
}

// Each chosen structure reduces cost by a known amount.
func TestGreedySearchRespectsBudgetAndK(t *testing.T) {
	cat := catalog.New()
	d := catalog.NewDatabase("db")
	cols := []*catalog.Column{}
	for _, c := range []string{"a", "b", "c", "d"} {
		cols = append(cols, &catalog.Column{Name: c, Type: catalog.TypeInt, Width: 8, Distinct: 1000, Min: 0, Max: 999})
	}
	d.AddTable(catalog.NewTable("db", "t", 1_000_000, cols...))
	cat.AddDatabase(d)

	gains := map[string]float64{}
	var cands []catalog.Structure
	for i, c := range []string{"a", "b", "c", "d"} {
		s := catalog.Structure{Index: catalog.NewIndex("t", c)}
		cands = append(cands, s)
		gains[s.Key()] = float64(10 * (i + 1))
	}
	cost := func(cfg *catalog.Configuration) float64 {
		total := 1000.0
		for _, ix := range cfg.Indexes {
			total -= gains[ix.Key()]
		}
		return total
	}
	const sql = "SELECT a FROM t WHERE a = 1 AND b = 1 AND c = 1 AND d = 1"

	// k = 2: picks the two largest gains (d then c).
	chosen, err := syntheticSearch(cat, sql, cost, cands, greedyOptions{m: 1, k: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 {
		t.Fatalf("chosen = %d", len(chosen))
	}
	if chosen[0].Index.KeyColumns[0] != "d" || chosen[1].Index.KeyColumns[0] != "c" {
		t.Fatalf("greedy order wrong: %v", chosen)
	}

	// A one-index storage budget limits the pick count.
	oneIndex := cands[0].StorageBytes(cat) + 1
	chosen, err = syntheticSearch(cat, sql, cost, cands, greedyOptions{m: 1, k: 4, budget: oneIndex})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 {
		t.Fatalf("budget must limit picks: %d", len(chosen))
	}

	// No candidate improves: nothing chosen.
	flat := func(cfg *catalog.Configuration) float64 { return 5 }
	chosen, err = syntheticSearch(cat, sql, flat, cands, greedyOptions{m: 1, k: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 0 {
		t.Fatalf("flat cost must choose nothing, got %v", chosen)
	}
}

func TestGreedySeedOptimalWithInteraction(t *testing.T) {
	// Two structures are only useful together; singletons are useless.
	// Greedy(1,k) misses them, Greedy(2,k) finds them.
	cat := catalog.New()
	d := catalog.NewDatabase("db")
	d.AddTable(catalog.NewTable("db", "t", 1000,
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9},
		&catalog.Column{Name: "b", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9}))
	cat.AddDatabase(d)
	sa := catalog.Structure{Index: catalog.NewIndex("t", "a")}
	sb := catalog.Structure{Index: catalog.NewIndex("t", "b")}
	cost := func(cfg *catalog.Configuration) float64 {
		if len(cfg.Indexes) == 2 {
			return 10
		}
		return 100
	}
	const sql = "SELECT a FROM t WHERE a = 1 AND b = 1"
	c1, _ := syntheticSearch(cat, sql, cost, []catalog.Structure{sa, sb}, greedyOptions{m: 1, k: 2})
	c2, _ := syntheticSearch(cat, sql, cost, []catalog.Structure{sa, sb}, greedyOptions{m: 2, k: 2})
	if len(c1) != 0 {
		t.Fatalf("Greedy(1,2) should find nothing here, got %v", c1)
	}
	if len(c2) != 2 {
		t.Fatalf("Greedy(2,2) must find the interacting pair, got %v", c2)
	}
}

func TestInterestingColumnGroups(t *testing.T) {
	s := testServer(t)
	var sqls []string
	// Column x dominates the workload; column amt appears once, cheaply.
	for i := 0; i < 30; i++ {
		sqls = append(sqls, "SELECT id FROM t WHERE x = 5 AND a = 3")
	}
	sqls = append(sqls, "SELECT id FROM t WHERE amt = 1")
	w := workload.MustNew(sqls...)
	ev := newEvaluator(s, w, "")
	groups, err := interestingColumnGroups(s, ev, w, Options{ColGroupFrac: 0.05}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !groups.interesting("t", "x") || !groups.interesting("t", "a") {
		t.Fatal("dominant columns must be interesting")
	}
	if !groups.interesting("t", "x", "a") {
		t.Fatal("co-occurring pair must be interesting")
	}
	if groups.interesting("t", "amt") {
		t.Fatal("rare cheap column must be pruned")
	}
	if groups.interesting("t", "x", "amt") {
		t.Fatal("pair with a pruned member must be pruned (apriori)")
	}

	// Disabled restriction admits everything.
	open, err := interestingColumnGroups(s, ev, w, Options{NoColGroupRestriction: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !open.interesting("t", "amt") {
		t.Fatal("disabled restriction must admit everything")
	}
}

func TestForEachSubset(t *testing.T) {
	var got [][]string
	forEachSubset([]string{"a", "b", "c"}, 2, func(s []string) {
		got = append(got, append([]string(nil), s...))
	})
	if len(got) != 3 {
		t.Fatalf("subsets = %d", len(got))
	}
	forEachSubset([]string{"a"}, 2, func([]string) { t.Fatal("k > n yields nothing") })
	forEachSubset(nil, 0, func([]string) { t.Fatal("k = 0 yields nothing") })
}

func TestEnumerateLazyAlignmentPostcondition(t *testing.T) {
	s := testServer(t)
	w := workload.MustNew(
		"SELECT id FROM t WHERE x BETWEEN 5 AND 50",
		"SELECT a, COUNT(*) FROM t WHERE x < 500 GROUP BY a",
	)
	for _, eager := range []bool{false, true} {
		rec, err := Tune(s, w, Options{
			Features:       FeatureIndexes | FeaturePartitioning,
			Aligned:        true,
			EagerAlignment: eager,
		})
		if err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		if !rec.Config.Aligned() {
			t.Fatalf("eager=%v: final configuration not aligned", eager)
		}
		if err := rec.Config.Validate(s.Cat); err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
	}
}
