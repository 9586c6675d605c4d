package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func testTable() *Table {
	return NewTable("db", "orders", 1_000_000,
		&Column{Name: "o_orderkey", Type: TypeInt, Width: 8, Distinct: 1_000_000, Min: 1, Max: 1_000_000},
		&Column{Name: "o_custkey", Type: TypeInt, Width: 8, Distinct: 100_000, Min: 1, Max: 100_000},
		&Column{Name: "o_orderdate", Type: TypeDate, Width: 8, Distinct: 2406, Min: 0, Max: 2405},
		&Column{Name: "o_comment", Type: TypeString, Width: 48, Distinct: 900_000, Min: 0, Max: 899_999},
	)
}

func TestTableBasics(t *testing.T) {
	tbl := testTable()
	if tbl.Column("O_ORDERKEY") == nil {
		t.Fatal("column lookup should be case-insensitive")
	}
	if tbl.Column("nope") != nil {
		t.Fatal("unknown column should return nil")
	}
	w := tbl.RowWidth()
	if w != 10+8+8+8+48 {
		t.Fatalf("RowWidth = %d, want %d", w, 10+8+8+8+48)
	}
	perPage := int64(PageSize / w)
	wantPages := (tbl.Rows + perPage - 1) / perPage
	if got := tbl.Pages(); got != wantPages {
		t.Fatalf("Pages = %d, want %d", got, wantPages)
	}
	if tbl.DistinctOf("o_custkey") != 100_000 {
		t.Fatalf("DistinctOf(o_custkey) = %d", tbl.DistinctOf("o_custkey"))
	}
	if tbl.DistinctOf("unknown") != tbl.Rows {
		t.Fatal("DistinctOf(unknown) should fall back to row count")
	}
}

func TestPagesForEdgeCases(t *testing.T) {
	if PagesFor(0, 100) != 1 {
		t.Fatal("empty tables still occupy one page")
	}
	if PagesFor(1, PageSize*3) != 1 {
		t.Fatal("a row wider than a page occupies one page per row")
	}
	if PagesFor(5, PageSize*3) != 5 {
		t.Fatal("five oversize rows occupy five pages")
	}
}

func TestCatalogResolve(t *testing.T) {
	c := New()
	d1 := NewDatabase("sales")
	d1.AddTable(testTable())
	c.AddDatabase(d1)
	d2 := NewDatabase("hr")
	d2.AddTable(NewTable("hr", "emp", 10, &Column{Name: "id", Type: TypeInt, Width: 8, Distinct: 10}))
	c.AddDatabase(d2)

	if c.ResolveTable("orders") == nil {
		t.Fatal("orders should resolve")
	}
	if c.ResolveTable("EMP") == nil {
		t.Fatal("resolution should be case-insensitive")
	}
	if c.ResolveTable("missing") != nil {
		t.Fatal("missing table should not resolve")
	}

	// Ambiguity: same table name in two databases resolves to nil.
	d2.AddTable(NewTable("hr", "orders", 5, &Column{Name: "x", Type: TypeInt, Width: 8, Distinct: 5}))
	if c.ResolveTable("orders") != nil {
		t.Fatal("ambiguous table should not resolve")
	}
}

func TestCatalogCloneIsDeep(t *testing.T) {
	c := New()
	d := NewDatabase("sales")
	d.AddTable(testTable())
	c.AddDatabase(d)

	cl := c.Clone()
	cl.Database("sales").Table("orders").Rows = 7
	cl.Database("sales").Table("orders").Columns[0].Distinct = 7
	if c.Database("sales").Table("orders").Rows != 1_000_000 {
		t.Fatal("clone shares row counts with original")
	}
	if c.Database("sales").Table("orders").Columns[0].Distinct != 1_000_000 {
		t.Fatal("clone shares column metadata with original")
	}
}

func TestPartitionScheme(t *testing.T) {
	p := NewPartitionScheme("o_orderdate", 30, 10, 20, 10)
	if got := p.Partitions(); got != 4 {
		t.Fatalf("Partitions = %d, want 4 (dedup + sort)", got)
	}
	cases := []struct {
		v    float64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {99, 3}}
	for _, tc := range cases {
		if got := p.Locate(tc.v); got != tc.want {
			t.Errorf("Locate(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if !p.Same(NewPartitionScheme("O_ORDERDATE", 10, 20, 30)) {
		t.Fatal("identical schemes should be Same")
	}
	if p.Same(NewPartitionScheme("o_orderdate", 10, 20)) {
		t.Fatal("different boundary counts are not Same")
	}
	if p.Same(nil) {
		t.Fatal("a scheme is not Same as nil")
	}
	var nilScheme *PartitionScheme
	if !nilScheme.Same(nil) {
		t.Fatal("nil schemes are mutually aligned")
	}
	if nilScheme.Partitions() != 1 {
		t.Fatal("nil scheme has one partition")
	}
}

func TestPartitionLocateProperty(t *testing.T) {
	// Property: Locate is monotone in v and always lands inside range.
	f := func(raw []float64, v float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		p := NewPartitionScheme("c", raw...)
		i := p.Locate(v)
		if i < 0 || i >= p.Partitions() {
			return false
		}
		j := p.Locate(v + 1)
		return j >= i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexProperties(t *testing.T) {
	tbl := testTable()
	ix := NewIndex("Orders", "O_CUSTKEY", "o_orderdate").WithInclude("o_comment")
	if ix.Table != "orders" || ix.KeyColumns[0] != "o_custkey" {
		t.Fatal("identifiers should be canonicalized to lower case")
	}
	if !ix.Covers([]string{"o_custkey", "o_orderdate", "O_COMMENT"}) {
		t.Fatal("index should cover key+included columns")
	}
	if ix.Covers([]string{"o_orderkey"}) {
		t.Fatal("index should not cover columns it lacks")
	}
	if ix.StorageBytes(tbl) <= 0 {
		t.Fatal("non-clustered index must consume storage")
	}
	cix := NewIndex("orders", "o_orderdate")
	cix.Clustered = true
	if cix.StorageBytes(tbl) != 0 {
		t.Fatal("clustered index is non-redundant storage")
	}
	if !cix.Covers([]string{"o_comment"}) {
		t.Fatal("clustered index covers everything")
	}
	if cix.Pages(tbl) != tbl.Pages() {
		t.Fatal("clustered index pages = table pages")
	}
	if ix.Pages(tbl) >= tbl.Pages() {
		t.Fatal("narrow NC index should be smaller than the heap")
	}
}

func TestIndexKeyIdentity(t *testing.T) {
	a := NewIndex("t", "a", "b").WithInclude("z", "y")
	b := NewIndex("T", "A", "B").WithInclude("Y", "Z")
	if a.Key() != b.Key() {
		t.Fatalf("include order should not change identity: %q vs %q", a.Key(), b.Key())
	}
	c := NewIndex("t", "b", "a")
	if a.Key() == c.Key() {
		t.Fatal("key column order is significant")
	}
}

func TestMaterializedView(t *testing.T) {
	cat := New()
	d := NewDatabase("db")
	d.AddTable(testTable())
	cat.AddDatabase(d)

	v := NewMaterializedView(
		[]string{"ORDERS"},
		nil,
		[]ColRef{NewColRef("orders", "o_custkey")},
		[]ColRef{NewColRef("orders", "o_custkey")},
		[]Agg{{Func: "COUNT"}, {Func: "SUM", Col: NewColRef("orders", "o_orderkey")}},
		100_000,
	)
	if !v.References("orders") || v.References("lineitem") {
		t.Fatal("References is wrong")
	}
	if v.StorageBytes(cat) <= 0 {
		t.Fatal("views consume storage")
	}
	v2 := NewMaterializedView(
		[]string{"orders"},
		nil,
		nil,
		[]ColRef{{Table: "orders", Column: "O_CUSTKEY"}},
		[]Agg{{Func: "SUM", Col: NewColRef("orders", "o_orderkey")}, {Func: "COUNT"}},
		100_000,
	)
	if v.Key() != v2.Key() {
		t.Fatalf("canonicalization failed:\n%s\n%s", v.Key(), v2.Key())
	}
}

func TestConfiguration(t *testing.T) {
	cat := New()
	d := NewDatabase("db")
	d.AddTable(testTable())
	cat.AddDatabase(d)

	cfg := NewConfiguration()
	if !cfg.AddIndex(NewIndex("orders", "o_custkey")) {
		t.Fatal("first add should succeed")
	}
	if cfg.AddIndex(NewIndex("orders", "o_custkey")) {
		t.Fatal("duplicate add should fail")
	}
	c1 := NewIndex("orders", "o_orderdate")
	c1.Clustered = true
	c2 := NewIndex("orders", "o_custkey")
	c2.Clustered = true
	if !cfg.AddIndex(c1) {
		t.Fatal("clustered add should succeed")
	}
	if cfg.AddIndex(c2) {
		t.Fatal("second clustering on same table must be rejected")
	}
	if cfg.ClusteredIndex("orders") == nil {
		t.Fatal("clustered index lookup failed")
	}
	if n := len(cfg.IndexesOn("orders")); n != 2 {
		t.Fatalf("IndexesOn = %d, want 2", n)
	}
	if err := cfg.Validate(cat); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := NewConfiguration()
	bad.AddIndex(NewIndex("orders", "mystery"))
	if err := bad.Validate(cat); err == nil {
		t.Fatal("index on unknown column must not validate")
	}

	bad2 := NewConfiguration()
	b1 := NewIndex("orders", "o_orderdate")
	b1.Clustered = true
	b2 := NewIndex("orders", "o_custkey")
	b2.Clustered = true
	bad2.Indexes = append(bad2.Indexes, b1, b2) // bypass AddIndex guard
	if err := bad2.Validate(cat); err == nil {
		t.Fatal("two clusterings on one table must not validate")
	}
}

func TestConfigurationAlignment(t *testing.T) {
	cfg := NewConfiguration()
	p := NewPartitionScheme("o_orderdate", 100, 200)
	cfg.SetTablePartitioning("orders", p)
	ix := NewIndex("orders", "o_custkey")
	cfg.AddIndex(ix)
	if cfg.Aligned() {
		t.Fatal("unpartitioned index on partitioned table is not aligned")
	}
	ix.Partitioning = p.Clone()
	if !cfg.Aligned() {
		t.Fatal("identically partitioned index should be aligned")
	}
	ix.Partitioning = NewPartitionScheme("o_orderdate", 100)
	if cfg.Aligned() {
		t.Fatal("different boundaries are not aligned")
	}
}

func TestConfigurationStorageAndKey(t *testing.T) {
	cat := New()
	d := NewDatabase("db")
	d.AddTable(testTable())
	cat.AddDatabase(d)

	cfg := NewConfiguration()
	cfg.AddIndex(NewIndex("orders", "o_custkey"))
	cfg.SetTablePartitioning("orders", NewPartitionScheme("o_orderdate", 1200))
	s1 := cfg.StorageBytes(cat)
	if s1 <= 0 {
		t.Fatal("storage should be positive")
	}
	cix := NewIndex("orders", "o_orderdate")
	cix.Clustered = true
	cfg.AddIndex(cix)
	if cfg.StorageBytes(cat) != s1 {
		t.Fatal("clustered index must not add storage")
	}

	other := NewConfiguration()
	other.SetTablePartitioning("orders", NewPartitionScheme("o_orderdate", 1200))
	other.AddIndex(cix.Clone())
	other.AddIndex(NewIndex("orders", "o_custkey"))
	if cfg.Key() != other.Key() {
		t.Fatalf("Key should be order independent:\n%s\n%s", cfg.Key(), other.Key())
	}
}

func TestStructureApply(t *testing.T) {
	cat := New()
	d := NewDatabase("db")
	d.AddTable(testTable())
	cat.AddDatabase(d)

	cfg := NewConfiguration()
	structs := []Structure{
		{Index: NewIndex("orders", "o_custkey")},
		{PartTable: "orders", Part: NewPartitionScheme("o_orderdate", 500)},
	}
	for _, s := range structs {
		if !s.ApplyTo(cfg) {
			t.Fatalf("ApplyTo(%s) should change config", s)
		}
		if s.ApplyTo(cfg) {
			t.Fatalf("second ApplyTo(%s) should be a no-op", s)
		}
	}
	if got := len(cfg.Structures()); got != 2 {
		t.Fatalf("Structures = %d, want 2", got)
	}
	for _, s := range cfg.Structures() {
		if s.Key() == "" || s.String() == "" {
			t.Fatal("structures must have identity and rendering")
		}
	}
}

func TestColumnGroup(t *testing.T) {
	g := NewColumnGroup("Orders", "B", "a", "b")
	if g.Key() != "orders(a,b)" {
		t.Fatalf("Key = %q", g.Key())
	}
	if !g.Contains("A") || g.Contains("c") {
		t.Fatal("Contains is wrong")
	}
}

func TestColumnGroupCanonicalProperty(t *testing.T) {
	f := func(cols []string) bool {
		for i := range cols {
			if len(cols[i]) > 8 {
				cols[i] = cols[i][:8]
			}
		}
		g := NewColumnGroup("t", cols...)
		shuffled := append([]string(nil), cols...)
		sort.Sort(sort.Reverse(sort.StringSlice(shuffled)))
		h := NewColumnGroup("T", shuffled...)
		if g.Key() != h.Key() {
			return false
		}
		// Canonical list is sorted and deduplicated.
		for i := 1; i < len(g.Columns); i++ {
			if g.Columns[i-1] >= g.Columns[i] {
				return false
			}
		}
		for _, c := range g.Columns {
			if c != strings.ToLower(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigurationMergeAndClone(t *testing.T) {
	a := NewConfiguration()
	a.AddIndex(NewIndex("orders", "o_custkey"))
	b := NewConfiguration()
	b.AddIndex(NewIndex("orders", "o_custkey")) // duplicate
	b.AddIndex(NewIndex("orders", "o_orderdate"))
	b.SetTablePartitioning("orders", NewPartitionScheme("o_orderdate", 7))
	a.Merge(b)
	if len(a.Indexes) != 2 {
		t.Fatalf("merge should dedup: %d indexes", len(a.Indexes))
	}
	if a.TablePartitioning("orders") == nil {
		t.Fatal("merge should carry partitioning")
	}

	cl := a.Clone()
	cl.Indexes[0].KeyColumns[0] = "mutated"
	cl.SetTablePartitioning("orders", nil)
	if a.Indexes[0].KeyColumns[0] == "mutated" {
		t.Fatal("clone shares index slices")
	}
	if a.TablePartitioning("orders") == nil {
		t.Fatal("clone shares partition map")
	}
}

// TestStructuresPartitioningOrder pins the tail of Structures(): table
// partitionings live in a map, and must come out sorted by table name on
// every call.
func TestStructuresPartitioningOrder(t *testing.T) {
	cfg := NewConfiguration()
	cfg.AddIndex(NewIndex("orders", "o_custkey"))
	for _, table := range []string{"part", "orders", "supplier", "customer", "lineitem"} {
		cfg.SetTablePartitioning(table, NewPartitionScheme("k", 1, 2))
	}
	for i := 0; i < 50; i++ {
		var tables []string
		for _, st := range cfg.Structures() {
			if st.Part != nil {
				tables = append(tables, st.PartTable)
			}
		}
		if len(tables) != 5 || !sort.StringsAreSorted(tables) {
			t.Fatalf("call %d: partitioning suffix %v, want 5 tables sorted by name", i, tables)
		}
	}
}

// TestIndexCovers pins Covers' semantics — need is compared lower-cased
// against the key and included columns; a clustered index covers
// everything — and that it allocates nothing, since the optimizer calls it
// once per index and scope on every access-path and probe decision.
func TestIndexCovers(t *testing.T) {
	nc := NewIndex("orders", "o_custkey").WithInclude("o_comment")
	inc := &Index{Table: "orders", KeyColumns: []string{"o_orderkey"}, IncludeCols: []string{"o_orderdate"}}
	cix := NewIndex("orders", "o_orderdate")
	cix.Clustered = true
	for _, c := range []struct {
		name string
		ix   *Index
		need []string
		want bool
	}{
		{"key column", nc, []string{"o_custkey"}, true},
		{"key and included", nc, []string{"o_comment", "o_custkey"}, true},
		{"include only", inc, []string{"o_orderdate"}, true},
		{"missing column", nc, []string{"o_custkey", "o_orderkey"}, false},
		{"mixed case need", nc, []string{"O_CustKey", "O_COMMENT"}, true},
		{"mixed case missing", nc, []string{"O_ORDERKEY"}, false},
		{"empty need", nc, nil, true},
		{"clustered covers all", cix, []string{"o_comment", "nope"}, true},
	} {
		if got := c.ix.Covers(c.need); got != c.want {
			t.Errorf("%s: Covers(%v) = %v, want %v", c.name, c.need, got, c.want)
		}
	}
	need := []string{"o_comment", "o_custkey"}
	if allocs := testing.AllocsPerRun(100, func() { nc.Covers(need) }); allocs != 0 {
		t.Fatalf("Covers allocated %.1f times per call, want 0", allocs)
	}
}

// TestValidateFirstBadPartitioningIsStable: with several invalid table
// partitionings, Validate reports the same one — the first by table name —
// on every call, not whichever map iteration happens to reach first.
func TestValidateFirstBadPartitioningIsStable(t *testing.T) {
	cat := New()
	d := NewDatabase("db")
	d.AddTable(testTable())
	cat.AddDatabase(d)
	cfg := NewConfiguration()
	cfg.SetTablePartitioning("orders", NewPartitionScheme("no_such_column", 1))
	cfg.SetTablePartitioning("ghost", NewPartitionScheme("k", 1))
	cfg.SetTablePartitioning("phantom", NewPartitionScheme("k", 1))
	want := `catalog: partitioning references unknown table "ghost"`
	for i := 0; i < 50; i++ {
		if err := cfg.Validate(cat); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
}

// TestPartitionSchemeStringMatchesFmt pins PartitionScheme.String, which a
// partitioned structure's key embeds, to its fmt-era rendering ("%g" per
// boundary inside "RANGE(%s) [%s]"): keys, and so pool fingerprints and
// persisted state, must not move when the rendering is cut to one append
// pass. Covered: 200k random floats (raw bit patterns and integer- and
// decimal-valued boundaries), the special values and the edges of the 'g'
// form's exponent switch.
func TestPartitionSchemeStringMatchesFmt(t *testing.T) {
	want := func(p *PartitionScheme) string {
		parts := make([]string, len(p.Boundaries))
		for i, b := range p.Boundaries {
			parts[i] = fmt.Sprintf("%g", b)
		}
		return fmt.Sprintf("RANGE(%s) [%s]", p.Column, strings.Join(parts, ", "))
	}
	check := func(p *PartitionScheme) {
		t.Helper()
		if got, w := p.String(), want(p); got != w {
			t.Fatalf("String() = %q, fmt renders %q", got, w)
		}
	}
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e21, 1e20, 1e-7, 1e-4, 1e-5,
		123456789, 0.1, -2.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, f := range special {
		check(&PartitionScheme{Column: "c", Boundaries: []float64{f}})
	}
	check(&PartitionScheme{Column: "o_orderdate", Boundaries: special})
	check(&PartitionScheme{Column: "empty"})

	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	p := &PartitionScheme{Column: "k", Boundaries: make([]float64, 4)}
	for i := 0; i < n; i += len(p.Boundaries) {
		for j := range p.Boundaries {
			switch (i + j) % 3 {
			case 0:
				p.Boundaries[j] = math.Float64frombits(rng.Uint64())
			case 1:
				p.Boundaries[j] = float64(rng.Int63n(1 << 40))
			default:
				p.Boundaries[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		check(p)
	}
}

// TestCompareColRefsIsStringOrder: join predicates are canonicalized by
// comparing their sides' "table.column" forms without building them; the
// comparison must be exactly the string order, '.' included.
func TestCompareColRefsIsStringOrder(t *testing.T) {
	names := []string{"", "a", "ab", "a_b", "a.b", "b", "t", "t1", "A"}
	for _, at := range names {
		for _, ac := range names {
			for _, bt := range names {
				for _, bc := range names {
					a, b := ColRef{at, ac}, ColRef{bt, bc}
					got, want := compareColRefs(a, b), strings.Compare(a.String(), b.String())
					if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
						t.Fatalf("compareColRefs(%q, %q) = %d, strings.Compare = %d", a, b, got, want)
					}
				}
			}
		}
	}
}
