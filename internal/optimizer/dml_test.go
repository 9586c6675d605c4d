package optimizer

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// dmlFixture returns additive structures over t whose maintenance terms
// differ — non-clustered indexes (one per modified/unmodified column mix), a
// single-table view, a grouped single-table view, an SPJ join view and a
// grouped join view, so the per-row factors span 0.02 to 0.06 — plus an index
// on d that no DML on t maintains.
func dmlFixture() []catalog.Structure {
	jp := catalog.JoinPred{Left: catalog.NewColRef("t", "d_id"), Right: catalog.NewColRef("d", "d_id")}
	return []catalog.Structure{
		{Index: catalog.NewIndex("t", "x")},
		{Index: catalog.NewIndex("t", "a").WithInclude("x")},
		{Index: catalog.NewIndex("t", "d_id")},
		{Index: catalog.NewIndex("d", "region")},
		{View: catalog.NewMaterializedView([]string{"t"}, nil,
			[]catalog.ColRef{catalog.NewColRef("t", "id"), catalog.NewColRef("t", "x")}, nil, nil, 1_000_000)},
		{View: catalog.NewMaterializedView([]string{"t"}, nil, nil,
			[]catalog.ColRef{catalog.NewColRef("t", "a")},
			[]catalog.Agg{{Func: "COUNT"}, {Func: "SUM", Col: catalog.NewColRef("t", "x")}}, 100)},
		{View: catalog.NewMaterializedView([]string{"t", "d"}, []catalog.JoinPred{jp},
			[]catalog.ColRef{catalog.NewColRef("t", "x"), catalog.NewColRef("d", "name")}, nil, nil, 1_000_000)},
		{View: catalog.NewMaterializedView([]string{"t", "d"}, []catalog.JoinPred{jp}, nil,
			[]catalog.ColRef{catalog.NewColRef("d", "region")},
			[]catalog.Agg{{Func: "COUNT"}}, 5)},
	}
}

// dmlStatements are the DML shapes the maintenance tests cost: single- and
// multi-row INSERTs, UPDATEs of an indexed column, of a view-only column and
// of an unindexed one, at small and large row counts, and DELETEs. Two of
// them (5,100 and 343,434 affected rows) sum the view terms to different
// floats in different orders.
var dmlStatements = []string{
	"INSERT INTO t (id, x, a, d_id, pad) VALUES (1, 2, 3, 4, 'p')",
	"INSERT INTO t (id, x, a, d_id, pad) VALUES (1, 2, 3, 4, 'p'), (5, 6, 7, 8, 'q'), (9, 10, 11, 12, 'r')",
	"UPDATE t SET x = 1 WHERE id = 77",
	"UPDATE t SET x = 1 WHERE x < 7000",
	"UPDATE t SET x = 1 WHERE a < 34",
	"UPDATE t SET a = 2 WHERE a < 60",
	"UPDATE t SET pad = 'z' WHERE d_id < 40000",
	"DELETE FROM t WHERE id = 5",
	"DELETE FROM t WHERE x < 9000",
	"DELETE FROM t WHERE x < 51",
}

// TestDMLCostIndependentOfStructureOrder: two configurations holding the same
// structure set cost every INSERT/UPDATE/DELETE bit-identically and report
// the same used structures, whatever order their Indexes and Views are
// listed in. Maintenance terms differ per structure (view factors depend on
// the table count and grouping) and float addition is not associative, so
// this holds only because the terms are summed in ascending key order.
func TestDMLCostIndependentOfStructureOrder(t *testing.T) {
	cat := testCatalog()
	o := newOpt(cat)
	adds := dmlFixture()
	clustered := catalog.NewIndex("t", "x")
	clustered.Clustered = true
	rnd := rand.New(rand.NewSource(20261016))
	for _, q := range dmlStatements {
		stmt := sqlparser.MustParse(q)
		for _, withClustered := range []bool{false, true} {
			var ref *Result
			for perm := 0; perm < 24; perm++ {
				cfg := catalog.NewConfiguration()
				if withClustered {
					cfg.AddIndex(clustered.Clone())
				}
				for _, i := range rnd.Perm(len(adds)) {
					adds[i].ApplyTo(cfg)
				}
				res, err := o.Optimize(stmt, cfg)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if math.Float64bits(res.Cost) != math.Float64bits(ref.Cost) || !slices.Equal(res.UsedStructures, ref.UsedStructures) {
					t.Fatalf("%q (clustered %v): order-dependent cost/used: %v %v vs %v %v",
						q, withClustered, res.Cost, res.UsedStructures, ref.Cost, ref.UsedStructures)
				}
			}
		}
	}
}

// TestMaintenanceSelectOnHostileSkeletons: replay reads a decoded skeleton
// without indexing anything by its contents, so no shape can panic; an
// UPDATE/DELETE skeleton whose every access path is gated out selects
// nothing (the caller then re-costs for real), and a term or path naming a
// structure the subset lacks is skipped.
func TestMaintenanceSelectOnHostileSkeletons(t *testing.T) {
	none := func(string) bool { return false }
	for _, c := range []struct {
		name string
		m    Maintenance
		ok   bool
		cost float64
	}{
		{"empty", Maintenance{}, true, 0},
		{"access-all-gated", Maintenance{Fixed: 1, Access: []ScopeAlt{{Gate: "ix:t(x)", Pre: 3}}}, false, 0},
		{"term-gated", Maintenance{Fixed: 1, Terms: []MaintTerm{{Gate: "mv:t", Struct: "mv:t", Cost: 9}}}, true, 1},
		{"base-term", Maintenance{Fixed: 1, Terms: []MaintTerm{{Struct: "cix:t(x)", Cost: 2}}}, true, 3},
	} {
		a := &Alternatives{Maint: &c.m}
		cost, _, ok := a.Select(none)
		if ok != c.ok || (ok && cost != c.cost) {
			t.Errorf("%s: Select = %v, %v; want %v, %v", c.name, cost, ok, c.cost, c.ok)
		}
	}
}
