package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func TestUniformHistogramSelectivity(t *testing.T) {
	h := NewUniformHistogram(0, 1000, 100000, 1000, 50)
	if got := h.SelLess(500); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("SelLess(500) = %g, want ~0.5", got)
	}
	if got := h.SelLess(0); got != 0 {
		t.Fatalf("SelLess(min) = %g", got)
	}
	if got := h.SelLess(2000); got != 1 {
		t.Fatalf("SelLess(beyond max) = %g", got)
	}
	if got := h.SelEq(500); math.Abs(got-0.001) > 0.0005 {
		t.Fatalf("SelEq = %g, want ~1/1000", got)
	}
	if got := h.SelRange(250, 750, true, true); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("SelRange = %g, want ~0.5", got)
	}
	if got := h.SelRange(math.Inf(-1), 250, false, false); math.Abs(got-0.25) > 0.05 {
		t.Fatalf("open range = %g, want ~0.25", got)
	}
}

func TestHistogramFromValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.NormFloat64()*100 + 500 // clustered around 500
	}
	h := NewHistogramFromValues(vals, 1_000_000, 64)
	if math.Abs(h.Rows()-1_000_000) > 1 {
		t.Fatalf("mass = %g", h.Rows())
	}
	// Median of the normal is its mean.
	if got := h.SelLess(500); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("SelLess(median) = %g, want ~0.5", got)
	}
	// Mass within one sigma should be ~0.68.
	if got := h.SelRange(400, 600, true, true); math.Abs(got-0.68) > 0.08 {
		t.Fatalf("one-sigma mass = %g", got)
	}
}

func TestHistogramMassInvariantProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
		}
		h := NewHistogramFromValues(raw, int64(len(raw))*10, 16)
		var mass float64
		lastHi := math.Inf(-1)
		for _, b := range h.Buckets {
			if b.Hi < lastHi {
				return false // buckets must be ordered
			}
			lastHi = b.Hi
			mass += b.Rows
		}
		if math.Abs(mass-h.TotalRows) > 1e-6*h.TotalRows+1e-9 {
			return false
		}
		// SelLess is monotone.
		lo, hi := h.Min, h.Max()
		prev := -1.0
		for i := 0; i <= 10; i++ {
			v := lo + (hi-lo)*float64(i)/10
			s := h.SelLess(v)
			if s < prev-1e-9 || s < 0 || s > 1 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func testCatalog() *catalog.Catalog {
	c := catalog.New()
	d := catalog.NewDatabase("db")
	d.AddTable(catalog.NewTable("db", "t", 200000,
		&catalog.Column{Name: "a", Type: catalog.TypeInt, Width: 8, Distinct: 50000, Min: 0, Max: 49999},
		&catalog.Column{Name: "b", Type: catalog.TypeInt, Width: 8, Distinct: 100, Min: 0, Max: 99},
		&catalog.Column{Name: "c", Type: catalog.TypeInt, Width: 8, Distinct: 10, Min: 0, Max: 9},
	))
	c.AddDatabase(d)
	return c
}

func TestBuildFromMetadata(t *testing.T) {
	cat := testCatalog()
	st, err := Build(cat, "t", []string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Key() != "t(a,b)" {
		t.Fatalf("key = %q", st.Key())
	}
	if len(st.Densities) != 2 {
		t.Fatalf("densities = %v", st.Densities)
	}
	if math.Abs(st.PrefixDensity(1)-1.0/50000) > 1e-9 {
		t.Fatalf("density(a) = %g", st.PrefixDensity(1))
	}
	// (a,b) saturates at row count: 50000*100 > 200000.
	if math.Abs(st.PrefixDensity(2)-1.0/200000) > 1e-12 {
		t.Fatalf("density(a,b) = %g", st.PrefixDensity(2))
	}
	if st.SampledPages <= 0 {
		t.Fatal("creation must charge sampling I/O")
	}
	if _, err := Build(cat, "t", []string{"zz"}, nil); err == nil {
		t.Fatal("unknown column must fail")
	}
	if _, err := Build(cat, "nope", []string{"a"}, nil); err == nil {
		t.Fatal("unknown table must fail")
	}
	if _, err := Build(cat, "t", nil, nil); err == nil {
		t.Fatal("empty column list must fail")
	}
}

type fakeSampler struct{ rows [][]float64 }

func (f *fakeSampler) SampleColumn(table, column string, n int) []float64 {
	var out []float64
	for _, r := range f.rows {
		out = append(out, r[0])
	}
	return out
}

func (f *fakeSampler) SampleRows(table string, columns []string, n int) [][]float64 {
	out := make([][]float64, 0, len(f.rows))
	for _, r := range f.rows {
		out = append(out, r[:len(columns)])
	}
	return out
}

func TestBuildFromSampler(t *testing.T) {
	cat := testCatalog()
	// All sampled rows share b-value → density of (a,b) dominated by a.
	s := &fakeSampler{}
	for i := 0; i < 1000; i++ {
		s.rows = append(s.rows, []float64{float64(i % 10), 5})
	}
	st, err := Build(cat, "t", []string{"a", "b"}, s)
	if err != nil {
		t.Fatal(err)
	}
	// 10 distinct leading values in sample, not scaled (saturated sample).
	if d := st.PrefixDensity(1); math.Abs(d-0.1) > 0.01 {
		t.Fatalf("density(a) from sample = %g, want ~0.1", d)
	}
	if d := st.PrefixDensity(2); math.Abs(d-0.1) > 0.01 {
		t.Fatalf("density(a,b) from sample = %g, want ~0.1", d)
	}
	if st.Hist == nil || st.Hist.Rows() != 200000 {
		t.Fatalf("hist = %v", st.Hist)
	}
}

func TestStoreLookups(t *testing.T) {
	cat := testCatalog()
	store := NewStore()
	ab, _ := Build(cat, "t", []string{"a", "b"}, nil)
	c, _ := Build(cat, "t", []string{"c"}, nil)
	store.Add(ab)
	store.Add(c)

	if !store.Has("T", []string{"A", "B"}) {
		t.Fatal("exact lookup failed")
	}
	if store.Has("t", []string{"b", "a"}) {
		t.Fatal("order matters for exact lookup")
	}
	if store.HistogramFor("t", "a") == nil {
		t.Fatal("histogram on leading column should be found")
	}
	if store.HistogramFor("t", "b") != nil {
		t.Fatal("no histogram exists on a non-leading column")
	}
	if _, ok := store.DensityFor("t", []string{"b", "a"}); !ok {
		t.Fatal("density is order-insensitive: (b,a) should be served by stat (a,b)")
	}
	if _, ok := store.DensityFor("t", []string{"b"}); ok {
		t.Fatal("(b) alone is not a leading prefix of (a,b)")
	}
	if n := len(store.All()); n != 2 {
		t.Fatalf("All = %d", n)
	}
	cl := store.Clone()
	cl.Add(mustBuild(t, cat, "t", "b"))
	if store.Len() != 2 || cl.Len() != 3 {
		t.Fatal("clone should be independent")
	}
}

func mustBuild(t *testing.T, cat *catalog.Catalog, table string, cols ...string) *Statistic {
	t.Helper()
	st, err := Build(cat, table, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReducePaperExample3(t *testing.T) {
	// Paper §5.2 Example 3: indexes on (A), (B), (A,B), (B,A), (A,B,C).
	// Creating statistics on (A,B,C) and one B-leading statistic contains
	// the same information as all five.
	reqs := []Request{
		{Table: "t", Columns: []string{"a"}},
		{Table: "t", Columns: []string{"b"}},
		{Table: "t", Columns: []string{"a", "b"}},
		{Table: "t", Columns: []string{"b", "a"}},
		{Table: "t", Columns: []string{"a", "b", "c"}},
	}
	red := Reduce(reqs)
	if len(red) != 2 {
		t.Fatalf("Reduce → %d stats, want 2: %v", len(red), red)
	}
	if !Covers(red, reqs) {
		t.Fatal("reduced set must cover all histogram and density info")
	}
	hasABC := false
	hasBLead := false
	for _, r := range red {
		if r.Key() == "t(a,b,c)" {
			hasABC = true
		}
		if r.Columns[0] == "b" {
			hasBLead = true
		}
	}
	if !hasABC || !hasBLead {
		t.Fatalf("expected (a,b,c) plus a b-leading stat, got %v", red)
	}

	// Against a store already holding (a,b,c), only the B-leading
	// information is missing under reduction; without it, every request
	// that is not an exact statistic is.
	store := NewStore()
	store.Add(mustBuild(t, testCatalog(), "t", "a", "b", "c"))
	if got := store.Missing(reqs, true); len(got) != 1 || got[0].Columns[0] != "b" {
		t.Fatalf("reduced Missing = %v, want one b-leading stat", got)
	}
	if got := store.Missing(reqs, false); len(got) != 4 {
		t.Fatalf("unreduced Missing = %v, want the 4 inexact requests", got)
	}
}

func TestReduceNoOpAndDedup(t *testing.T) {
	if got := Reduce(nil); len(got) != 0 {
		t.Fatal("empty input")
	}
	reqs := []Request{
		{Table: "t", Columns: []string{"A"}},
		{Table: "t", Columns: []string{"a"}},
	}
	if got := Reduce(reqs); len(got) != 1 {
		t.Fatalf("dedup failed: %v", got)
	}
	// Disjoint stats are all kept.
	reqs = []Request{
		{Table: "t", Columns: []string{"a"}},
		{Table: "t", Columns: []string{"b"}},
		{Table: "u", Columns: []string{"a"}},
	}
	if got := Reduce(reqs); len(got) != 3 {
		t.Fatalf("disjoint reduce: %v", got)
	}
}

func TestReduceCoversProperty(t *testing.T) {
	cols := []string{"a", "b", "c", "d", "e"}
	f := func(picks []uint8) bool {
		var reqs []Request
		for _, p := range picks {
			// Derive an ordered column list from the bits of p.
			n := int(p)%3 + 1
			var cl []string
			for i := 0; i < n; i++ {
				cl = append(cl, cols[(int(p)+i*2)%len(cols)])
			}
			// Deduplicate columns inside the request.
			seen := map[string]bool{}
			var uniq []string
			for _, c := range cl {
				if !seen[c] {
					seen[c] = true
					uniq = append(uniq, c)
				}
			}
			reqs = append(reqs, Request{Table: "t", Columns: uniq})
		}
		red := Reduce(reqs)
		if !Covers(red, reqs) {
			return false
		}
		return len(red) <= len(reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSavesOnPrefixHeavySets(t *testing.T) {
	// Candidate sets from real tuning share many prefixes; the reduction
	// should then be substantial (the paper reports 55% on TPC-H).
	var reqs []Request
	base := []string{"a", "b", "c", "d"}
	for i := range base {
		reqs = append(reqs, Request{Table: "t", Columns: base[:i+1]})
	}
	red := Reduce(reqs)
	if len(red) != 1 {
		t.Fatalf("prefix chain should reduce to 1 stat, got %v", red)
	}
	if red[0].Key() != "t(a,b,c,d)" {
		t.Fatalf("should keep the widest: %v", red)
	}
}
