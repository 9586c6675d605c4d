package optimizer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// altFixture returns the additive structures (non-clustered indexes and
// views) the skeleton equivalence tests select subsets from. ix3 and ix4 are
// deliberately symmetric — same leading column, same included width — so
// covering scans over them cost exactly the same and exercise the
// deterministic (cost, op, structure) tie-break.
func altFixture() []catalog.Structure {
	view := catalog.NewMaterializedView(
		[]string{"t"}, nil, nil,
		[]catalog.ColRef{catalog.NewColRef("t", "a")},
		[]catalog.Agg{{Func: "COUNT"}, {Func: "SUM", Col: catalog.NewColRef("t", "x")}},
		100,
	)
	return []catalog.Structure{
		{Index: catalog.NewIndex("t", "x")},
		{Index: catalog.NewIndex("t", "x", "a")},
		{Index: catalog.NewIndex("t", "a").WithInclude("x")},
		{Index: catalog.NewIndex("t", "a").WithInclude("d_id")},
		{View: view},
	}
}

// applySubset builds a configuration holding the base structures plus the
// chosen additive subset, applying the additive structures in reverse order
// so the test also proves the choice does not depend on the order structures
// are listed in the configuration.
func applySubset(base *catalog.Configuration, adds []catalog.Structure, mask int) *catalog.Configuration {
	cfg := base.Clone()
	for i := len(adds) - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			adds[i].ApplyTo(cfg)
		}
	}
	return cfg
}

// TestAlternativesSelectMatchesDirectOptimize is the skeleton soundness
// property: for every query shape and every subset of additive structures,
// replaying the skeleton taken at the full configuration returns exactly the
// cost and used-structure set a direct optimization of the subset returns.
func TestAlternativesSelectMatchesDirectOptimize(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	adds := altFixture()

	queries := []string{
		"SELECT id FROM t WHERE x = 42",
		"SELECT x, a FROM t WHERE x < 3000",
		"SELECT a, COUNT(*), SUM(x) FROM t GROUP BY a",
		"SELECT a FROM t WHERE a < 50 ORDER BY a",
		"SELECT TOP 10 x FROM t WHERE a = 3 ORDER BY x",
		"SELECT DISTINCT a FROM t WHERE x >= 9000",
	}

	bases := map[string]*catalog.Configuration{
		"heap": catalog.NewConfiguration(),
	}
	clustered := catalog.NewConfiguration()
	cix := catalog.NewIndex("t", "id")
	cix.Clustered = true
	clustered.AddIndex(cix)
	bases["clustered"] = clustered
	parted := catalog.NewConfiguration()
	parted.SetTablePartitioning("t", catalog.NewPartitionScheme("x", 10, 100, 1000, 5000))
	bases["partitioned"] = parted

	for baseName, base := range bases {
		for _, q := range queries {
			stmt := sqlparser.MustParse(q)
			full := applySubset(base, adds, (1<<len(adds))-1)
			res, alts, err := o.OptimizeAlternatives(stmt, full)
			if err != nil {
				t.Fatalf("%s/%q: OptimizeAlternatives: %v", baseName, q, err)
			}
			direct, err := o.Optimize(stmt, full)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != direct.Cost {
				t.Fatalf("%s/%q: OptimizeAlternatives cost %v != Optimize cost %v", baseName, q, res.Cost, direct.Cost)
			}
			if alts == nil {
				t.Fatalf("%s/%q: single-scope SELECT must produce a skeleton", baseName, q)
			}
			for mask := 0; mask < 1<<len(adds); mask++ {
				sub := applySubset(base, adds, mask)
				has := func(key string) bool {
					for i, s := range adds {
						if mask&(1<<i) != 0 && s.Key() == key {
							return true
						}
					}
					return false
				}
				got, gotUsed, ok := alts.Select(has)
				if !ok {
					t.Fatalf("%s/%q mask %b: Select failed", baseName, q, mask)
				}
				want, err := o.Optimize(stmt, sub)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Cost {
					t.Fatalf("%s/%q mask %b: replayed cost %v != direct cost %v", baseName, q, mask, got, want.Cost)
				}
				sort.Strings(gotUsed)
				wantUsed := append([]string(nil), want.UsedStructures...)
				sort.Strings(wantUsed)
				if len(gotUsed) != len(wantUsed) {
					t.Fatalf("%s/%q mask %b: replayed used %v != direct used %v", baseName, q, mask, gotUsed, wantUsed)
				}
				for i := range gotUsed {
					if gotUsed[i] != wantUsed[i] {
						t.Fatalf("%s/%q mask %b: replayed used %v != direct used %v", baseName, q, mask, gotUsed, wantUsed)
					}
				}
			}
		}
	}
}

// TestMaintenanceSelectMatchesDirectOptimize is the DML skeleton soundness
// property: for INSERTs, UPDATEs of indexed, view-only and unindexed columns
// and DELETEs, over a heap, a table clustered on the modified key, one
// clustered elsewhere and a partitioned one, replaying the maintenance
// skeleton taken at the full configuration returns, for every subset of
// seven additive structures (indexes that are or are not maintained,
// seekable and covering, single-table, grouped and joined views), exactly
// the cost and used-structure set a direct optimization of the subset
// returns — bit for bit, with the subset applied in reverse order.
func TestMaintenanceSelectMatchesDirectOptimize(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	adds := dmlFixture()[:7]

	bases := map[string]*catalog.Configuration{"heap": catalog.NewConfiguration()}
	for name, col := range map[string]string{"clustered-modified": "x", "clustered-elsewhere": "id"} {
		cfg := catalog.NewConfiguration()
		cix := catalog.NewIndex("t", col)
		cix.Clustered = true
		cfg.AddIndex(cix)
		bases[name] = cfg
	}
	parted := catalog.NewConfiguration()
	parted.SetTablePartitioning("t", catalog.NewPartitionScheme("x", 10, 100, 1000, 5000))
	bases["partitioned"] = parted

	for baseName, base := range bases {
		for _, q := range dmlStatements {
			stmt := sqlparser.MustParse(q)
			full := applySubset(base, adds, (1<<len(adds))-1)
			res, alts, err := o.OptimizeAlternatives(stmt, full)
			if err != nil {
				t.Fatalf("%s/%q: OptimizeAlternatives: %v", baseName, q, err)
			}
			direct, err := o.Optimize(stmt, full)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != direct.Cost || fmt.Sprint(res.RequiredStats) != fmt.Sprint(direct.RequiredStats) {
				t.Fatalf("%s/%q: OptimizeAlternatives result differs from Optimize", baseName, q)
			}
			if alts == nil || alts.Maint == nil || alts.Join != nil || len(alts.Components) > 0 {
				t.Fatalf("%s/%q: DML must produce a maintenance skeleton, got %+v", baseName, q, alts)
			}
			for mask := 0; mask < 1<<len(adds); mask++ {
				sub := applySubset(base, adds, mask)
				got, gotUsed, ok := alts.Select(func(key string) bool {
					for i, s := range adds {
						if mask&(1<<i) != 0 && s.Key() == key {
							return true
						}
					}
					return false
				})
				if !ok {
					t.Fatalf("%s/%q mask %b: Select failed", baseName, q, mask)
				}
				want, err := o.Optimize(stmt, sub)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want.Cost) || !slices.Equal(gotUsed, want.UsedStructures) {
					t.Fatalf("%s/%q mask %b: replayed %v %v, direct %v %v", baseName, q, mask, got, gotUsed, want.Cost, want.UsedStructures)
				}
			}
		}
	}
}

// joinFixture returns the additive structures the join-skeleton equivalence
// test selects subsets from: probe and seek indexes on both sides of the
// t⋈d edge (including a symmetric equal-cost pair), an SPJ join view and a
// grouped join view.
func joinFixture() []catalog.Structure {
	jp := catalog.JoinPred{Left: catalog.NewColRef("t", "d_id"), Right: catalog.NewColRef("d", "d_id")}
	spj := catalog.NewMaterializedView(
		[]string{"t", "d"}, []catalog.JoinPred{jp},
		[]catalog.ColRef{
			catalog.NewColRef("t", "x"), catalog.NewColRef("t", "a"),
			catalog.NewColRef("d", "name"), catalog.NewColRef("d", "region"),
		},
		nil, nil, 1_000_000,
	)
	grouped := catalog.NewMaterializedView(
		[]string{"t", "d"}, []catalog.JoinPred{jp},
		nil,
		[]catalog.ColRef{catalog.NewColRef("t", "a"), catalog.NewColRef("d", "region")},
		[]catalog.Agg{{Func: "COUNT"}},
		500,
	)
	return []catalog.Structure{
		{Index: catalog.NewIndex("t", "d_id")},
		{Index: catalog.NewIndex("d", "d_id").WithInclude("name")},
		{Index: catalog.NewIndex("t", "x", "d_id")},
		// Symmetric pair: same key, equal-width includes — probe and seek
		// costs tie exactly, exercising the structure-key tie-break inside a
		// composed join.
		{Index: catalog.NewIndex("t", "d_id").WithInclude("x")},
		{Index: catalog.NewIndex("t", "d_id").WithInclude("a")},
		{View: spj},
		{View: grouped},
	}
}

// TestJoinAlternativesSelectMatchesDirectOptimize is the multi-scope skeleton
// soundness property: for join query shapes and every subset of additive
// structures, replaying the skeleton taken at the full configuration returns
// exactly the cost and used-structure set a direct optimization of the subset
// returns.
func TestJoinAlternativesSelectMatchesDirectOptimize(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	adds := joinFixture()

	queries := []string{
		"SELECT d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 17",
		"SELECT d.name, t.x FROM t, d WHERE t.d_id = d.d_id AND t.x < 500 ORDER BY t.x",
		"SELECT t.a, COUNT(*) FROM t, d WHERE t.d_id = d.d_id GROUP BY t.a",
		"SELECT d.region, COUNT(*) FROM t, d WHERE t.d_id = d.d_id AND t.a = 3 GROUP BY d.region",
		"SELECT TOP 5 d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 9 ORDER BY d.name",
	}

	bases := map[string]*catalog.Configuration{
		"heap": catalog.NewConfiguration(),
	}
	clustered := catalog.NewConfiguration()
	cixT := catalog.NewIndex("t", "id")
	cixT.Clustered = true
	clustered.AddIndex(cixT)
	cixD := catalog.NewIndex("d", "d_id")
	cixD.Clustered = true
	clustered.AddIndex(cixD)
	bases["clustered"] = clustered
	parted := catalog.NewConfiguration()
	parted.SetTablePartitioning("t", catalog.NewPartitionScheme("x", 10, 100, 1000, 5000))
	bases["partitioned"] = parted

	for baseName, base := range bases {
		for _, q := range queries {
			stmt := sqlparser.MustParse(q)
			full := applySubset(base, adds, (1<<len(adds))-1)
			res, alts, err := o.OptimizeAlternatives(stmt, full)
			if err != nil {
				t.Fatalf("%s/%q: OptimizeAlternatives: %v", baseName, q, err)
			}
			direct, err := o.Optimize(stmt, full)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != direct.Cost {
				t.Fatalf("%s/%q: OptimizeAlternatives cost %v != Optimize cost %v", baseName, q, res.Cost, direct.Cost)
			}
			if alts == nil || alts.Join == nil {
				t.Fatalf("%s/%q: join SELECT must produce a join skeleton", baseName, q)
			}
			for mask := 0; mask < 1<<len(adds); mask++ {
				sub := applySubset(base, adds, mask)
				has := func(key string) bool {
					for i, s := range adds {
						if mask&(1<<i) != 0 && s.Key() == key {
							return true
						}
					}
					return false
				}
				got, gotUsed, ok := alts.Select(has)
				if !ok {
					t.Fatalf("%s/%q mask %b: Select failed", baseName, q, mask)
				}
				want, err := o.Optimize(stmt, sub)
				if err != nil {
					t.Fatal(err)
				}
				if got != want.Cost {
					t.Fatalf("%s/%q mask %b: replayed cost %v != direct cost %v", baseName, q, mask, got, want.Cost)
				}
				sort.Strings(gotUsed)
				wantUsed := append([]string(nil), want.UsedStructures...)
				sort.Strings(wantUsed)
				if len(gotUsed) != len(wantUsed) {
					t.Fatalf("%s/%q mask %b: replayed used %v != direct used %v", baseName, q, mask, gotUsed, wantUsed)
				}
				for i := range gotUsed {
					if gotUsed[i] != wantUsed[i] {
						t.Fatalf("%s/%q mask %b: replayed used %v != direct used %v", baseName, q, mask, gotUsed, wantUsed)
					}
				}
			}
		}
	}
}

// TestJoinTieBreakRandomizedOrders is the satellite property test for
// equal-cost ties under composed join skeletons: indexes on t(d_id) with
// equal-width includes cost exactly the same as probe and seek alternatives,
// so every subset of them ties. For random subsets applied in random orders,
// a fresh optimization must pick the same winner (same cost, same used set)
// as the insertion-order-reversed configuration AND as the skeleton replay —
// i.e. the choice depends only on the structure set, never on enumeration
// order.
func TestJoinTieBreakRandomizedOrders(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	tied := []catalog.Structure{
		{Index: catalog.NewIndex("t", "d_id").WithInclude("x")},
		{Index: catalog.NewIndex("t", "d_id").WithInclude("a")},
		{Index: catalog.NewIndex("t", "d_id").WithInclude("id")},
		{Index: catalog.NewIndex("d", "d_id").WithInclude("region")},
		{Index: catalog.NewIndex("d", "d_id").WithInclude("d_id")},
	}
	queries := []string{
		"SELECT d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 17",
		"SELECT t.a, COUNT(*) FROM t, d WHERE t.d_id = d.d_id GROUP BY t.a",
	}
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 100; trial++ {
		mask := rng.Intn(1 << len(tied))
		var subset []catalog.Structure
		for i, s := range tied {
			if mask&(1<<i) != 0 {
				subset = append(subset, s)
			}
		}
		perm := rng.Perm(len(subset))
		fwd := catalog.NewConfiguration()
		for _, i := range perm {
			subset[i].ApplyTo(fwd)
		}
		rev := catalog.NewConfiguration()
		for k := len(perm) - 1; k >= 0; k-- {
			subset[perm[k]].ApplyTo(rev)
		}
		q := queries[trial%len(queries)]
		stmt := sqlparser.MustParse(q)
		rf, err := o.Optimize(stmt, fwd)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := o.Optimize(stmt, rev)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Cost != rr.Cost {
			t.Fatalf("trial %d %q: order-dependent cost %v vs %v", trial, q, rf.Cost, rr.Cost)
		}
		if len(rf.UsedStructures) != len(rr.UsedStructures) {
			t.Fatalf("trial %d %q: order-dependent used %v vs %v", trial, q, rf.UsedStructures, rr.UsedStructures)
		}
		for i := range rf.UsedStructures {
			if rf.UsedStructures[i] != rr.UsedStructures[i] {
				t.Fatalf("trial %d %q: order-dependent used %v vs %v", trial, q, rf.UsedStructures, rr.UsedStructures)
			}
		}
		// The skeleton taken at the full tied set must replay the same winner
		// for this subset.
		fullCfg := catalog.NewConfiguration()
		for _, s := range tied {
			s.ApplyTo(fullCfg)
		}
		_, alts, err := o.OptimizeAlternatives(stmt, fullCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotUsed, ok := alts.Select(func(key string) bool {
			for i, s := range tied {
				if mask&(1<<i) != 0 && s.Key() == key {
					return true
				}
			}
			return false
		})
		if !ok || got != rf.Cost {
			t.Fatalf("trial %d %q: replay cost %v != direct %v", trial, q, got, rf.Cost)
		}
		sort.Strings(gotUsed)
		wantUsed := append([]string(nil), rf.UsedStructures...)
		sort.Strings(wantUsed)
		if len(gotUsed) != len(wantUsed) {
			t.Fatalf("trial %d %q: replay used %v != direct %v", trial, q, gotUsed, wantUsed)
		}
		for i := range gotUsed {
			if gotUsed[i] != wantUsed[i] {
				t.Fatalf("trial %d %q: replay used %v != direct %v", trial, q, gotUsed, wantUsed)
			}
		}
	}
}

// TestTieBreakIsOrderIndependent pins the pathLess property the derivation
// layer depends on: two exactly symmetric covering indexes cost the same, and
// the optimizer picks the same one regardless of the order the configuration
// lists them in.
func TestTieBreakIsOrderIndependent(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	q := sqlparser.MustParse("SELECT a FROM t WHERE a < 50")
	ix1 := catalog.NewIndex("t", "a").WithInclude("x")
	ix2 := catalog.NewIndex("t", "a").WithInclude("d_id")

	fwd := catalog.NewConfiguration()
	fwd.AddIndex(ix1)
	fwd.AddIndex(ix2)
	rev := catalog.NewConfiguration()
	rev.AddIndex(ix2)
	rev.AddIndex(ix1)

	rf, err := o.Optimize(q, fwd)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := o.Optimize(q, rev)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cost != rr.Cost {
		t.Fatalf("tied configs must cost the same: %v vs %v", rf.Cost, rr.Cost)
	}
	if len(rf.UsedStructures) != 1 || len(rr.UsedStructures) != 1 || rf.UsedStructures[0] != rr.UsedStructures[0] {
		t.Fatalf("tie must break identically under both orders: %v vs %v", rf.UsedStructures, rr.UsedStructures)
	}
}

// countingSrc wraps a join source and counts how often the composition asks
// it for each scope's access and each probe group's candidates.
type countingSrc struct {
	inner            joinSrc
	nAccess, nProbes []int
}

func (s *countingSrc) access(i int) joinStep {
	s.nAccess[i]++
	return s.inner.access(i)
}

func (s *countingSrc) probes(g int) []probeCand {
	s.nProbes[g]++
	return s.inner.probes(g)
}

// TestComposeJoinReadsEachInputOnce pins the hoist of per-scope inputs out
// of the join-order search: one composition of an n-scope join asks its
// source for each scope's access exactly once and for each (scope, join
// column) probe group at most once — exactly once under the subset DP,
// which reaches every edge from both ends — and the live source it reads
// is the optimization's scope table, which the plan and the skeleton
// capture then read without recomputing: the composed chain prices the
// plan Optimize returns.
func TestComposeJoinReadsEachInputOnce(t *testing.T) {
	o := newOpt(testCatalog())
	cfg := catalog.NewConfiguration()
	cfg.AddIndex(catalog.NewIndex("t", "d_id"))
	cfg.AddIndex(catalog.NewIndex("t", "x").WithInclude("d_id"))
	cfg.AddIndex(catalog.NewIndex("d", "d_id").WithInclude("name"))
	for _, tc := range []struct {
		sql    string
		scopes int
		greedy bool
	}{
		{sql: `SELECT t1.id, d2.name FROM t t1, d d1, t t2, d d2, t t3
			WHERE t1.d_id = d1.d_id AND t2.d_id = d1.d_id AND t2.x = t3.x
			AND t3.d_id = d2.d_id AND t1.x = 17`, scopes: 5},
		{sql: "SELECT t1.id FROM t t1, d, t t2 WHERE t1.d_id = d.d_id AND t2.x = 5", scopes: 3, greedy: true},
	} {
		stmt := sqlparser.MustParse(tc.sql)
		q, err := o.analyze(stmt)
		if err != nil {
			t.Fatal(err)
		}
		c := &optContext{opt: o, cfg: cfg, wanted: map[string]stats.Request{}}
		l := c.liveJoin(q)
		if l.g.n != tc.scopes {
			t.Fatalf("%q: %d scopes, want %d", tc.sql, l.g.n, tc.scopes)
		}
		src := &countingSrc{inner: l, nAccess: make([]int, l.g.n), nProbes: make([]int, len(l.g.groups))}
		chain, _ := composeJoin(l.g, src)
		for i, n := range src.nAccess {
			if n != 1 {
				t.Fatalf("%q: scope %d access asked %d times, want once", tc.sql, i, n)
			}
		}
		for g, n := range src.nProbes {
			if n > 1 || (n == 0 && !tc.greedy) {
				t.Fatalf("%q: probe group %+v asked %d times", tc.sql, l.g.groups[g], n)
			}
		}
		if _, dp := newComposer(l.g, l).composeDP(); dp == tc.greedy {
			t.Fatalf("%q: subset DP completed = %v, want %v", tc.sql, dp, !tc.greedy)
		}
		res, err := o.Optimize(stmt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := res.Plan
		for root.Op != "HashJoin" && root.Op != "IndexLoopJoin" {
			root = root.Children[0]
		}
		if got, want := l.plan(chain).String(), root.String(); got != want {
			t.Fatalf("%q: composed join\n%s differs from the optimized plan's join\n%s", tc.sql, got, want)
		}
	}
}

// histCounter wraps a StatsProvider and counts histogram lookups by
// "table.column".
type histCounter struct {
	StatsProvider
	n map[string]int
}

func (h *histCounter) HistogramFor(table, column string) *stats.Histogram {
	h.n[table+"."+column]++
	return h.StatsProvider.HistogramFor(table, column)
}

// TestViewsMatchedOncePerOptimization: one optimization matches and costs
// each configuration view once, and the plan choice and the skeleton capture
// both read that one match. Costing a matched view reads the histogram of
// the query's filtered column once, and nothing else the optimization does
// depends on whether the views are present, so the views add exactly one
// lookup of that histogram per view, under Optimize and OptimizeAlternatives
// alike, for a single-scope query and a join.
func TestViewsMatchedOncePerOptimization(t *testing.T) {
	cat := testCatalog()
	jp := catalog.JoinPred{Left: catalog.NewColRef("t", "d_id"), Right: catalog.NewColRef("d", "d_id")}
	cols := func(cs ...string) []catalog.ColRef {
		var out []catalog.ColRef
		for _, c := range cs {
			tbl, col, _ := strings.Cut(c, ".")
			out = append(out, catalog.NewColRef(tbl, col))
		}
		return out
	}
	for _, tc := range []struct {
		sql   string
		views []*catalog.MaterializedView
	}{
		{"SELECT a FROM t WHERE x < 100", []*catalog.MaterializedView{
			catalog.NewMaterializedView([]string{"t"}, nil, cols("t.x", "t.a"), nil, nil, 1_000_000),
			catalog.NewMaterializedView([]string{"t"}, nil, cols("t.x", "t.a", "t.d_id"), nil, nil, 1_000_000),
		}},
		{"SELECT t.a, d.name FROM t, d WHERE t.d_id = d.d_id AND t.x < 100", []*catalog.MaterializedView{
			catalog.NewMaterializedView([]string{"t", "d"}, []catalog.JoinPred{jp}, cols("t.x", "t.a", "d.name"), nil, nil, 1_000_000),
			catalog.NewMaterializedView([]string{"t", "d"}, []catalog.JoinPred{jp}, cols("t.x", "t.a", "d.name", "d.region"), nil, nil, 1_000_000),
		}},
	} {
		stmt := sqlparser.MustParse(tc.sql)
		withViews := catalog.NewConfiguration()
		for _, v := range tc.views {
			withViews.AddView(v)
		}
		lookups := func(cfg *catalog.Configuration, alts bool) int {
			h := &histCounter{StatsProvider: newOpt(cat).Stats, n: map[string]int{}}
			o := New(cat, h, DefaultHardware())
			if !alts {
				if _, err := o.Optimize(stmt, cfg); err != nil {
					t.Fatal(err)
				}
				return h.n["t.x"]
			}
			_, a, err := o.OptimizeAlternatives(stmt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			views := 0
			for _, c := range a.Components {
				if c.View {
					views++
				}
			}
			if a.Join != nil {
				views = len(a.Join.Views)
			}
			if views != len(cfg.Views) {
				t.Fatalf("%q: skeleton holds %d views, want all %d to match", tc.sql, views, len(cfg.Views))
			}
			return h.n["t.x"]
		}
		for _, alts := range []bool{false, true} {
			if got := lookups(withViews, alts) - lookups(catalog.NewConfiguration(), alts); got != len(tc.views) {
				t.Errorf("%q (alternatives %v): %d views cost %d extra t.x histogram lookups, want one per view", tc.sql, alts, len(tc.views), got)
			}
		}
	}
}

// TestCanonicalJSONIsMemoizedMarshal: a skeleton's CanonicalJSON is exactly
// json.Marshal's rendering of it — single-scope, join and DML shapes alike —
// rendered once and shared by every caller, however many ask at once (a plan
// cache hands one skeleton to many sealing sessions). Run under -race.
func TestCanonicalJSONIsMemoizedMarshal(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	full := applySubset(catalog.NewConfiguration(), joinFixture(), (1<<len(joinFixture()))-1)
	for _, q := range []string{
		"SELECT id FROM t WHERE x = 42",
		"SELECT d.name FROM t, d WHERE t.d_id = d.d_id AND t.x = 17",
		"UPDATE t SET amt = 1 WHERE x = 7",
	} {
		_, alts, err := o.OptimizeAlternatives(sqlparser.MustParse(q), full)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(alts)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 8
		got := make([][]byte, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = alts.CanonicalJSON()
			}()
		}
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, want) {
				t.Fatalf("%q: caller %d got %s, want %s", q, i, b, want)
			}
			if &b[0] != &got[0][0] {
				t.Fatalf("%q: caller %d got its own rendering", q, i)
			}
		}
	}
}
