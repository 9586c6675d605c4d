package derive

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen/tpch"
	"repro/internal/optimizer"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// readyShape is one event whose fact is ready in its engine: the statement,
// the additive pool its top holds, every subset of the pool as an interned,
// ascending ID set, and the additive pool a request names.
type readyShape struct {
	name     string
	e        *Engine
	join     bool
	pool     []int32
	subsets  [][]int32
	additive []int32
	fetch    Fetch
}

// readyShapes returns a ready fact of each skeleton shape over the toy TPC-H
// catalog — a single-scope SELECT, a DML maintenance sum and a four-scope
// join — each fetched once from a real optimizer at its pool's top and asked
// for under that pool, and last the single-scope fact past a phase barrier,
// asked for with no additive pool: an earlier phase's fact answering
// requests by covering, whose tops are not its own.
func readyShapes(tb testing.TB) []*readyShape {
	tb.Helper()
	cat := tpch.Catalog(0.002)
	o := optimizer.New(cat, stats.NewStore(), optimizer.DefaultHardware())
	ix := func(table string, cols ...string) catalog.Structure {
		return catalog.Structure{Index: catalog.NewIndex(table, cols...)}
	}
	var out []*readyShape
	for _, c := range []struct {
		name string
		join bool
		sql  string
		pool []catalog.Structure
	}{
		{"single-scope", false,
			"SELECT l_orderkey, SUM(l_quantity) FROM lineitem WHERE l_partkey = 5 AND l_suppkey < 40 GROUP BY l_orderkey ORDER BY l_orderkey",
			[]catalog.Structure{ix("lineitem", "l_partkey"), ix("lineitem", "l_suppkey"), ix("lineitem", "l_orderkey"),
				ix("lineitem", "l_partkey", "l_suppkey"), ix("lineitem", "l_orderkey", "l_partkey")}},
		{"dml", false,
			"UPDATE lineitem SET l_quantity = 1 WHERE l_partkey = 5",
			[]catalog.Structure{ix("lineitem", "l_partkey"), ix("lineitem", "l_quantity"), ix("lineitem", "l_suppkey"),
				ix("lineitem", "l_partkey", "l_quantity"), ix("lineitem", "l_orderkey")}},
		{"join", true, tpch.Queries()[2], // Q3: customer, orders, lineitem
			[]catalog.Structure{ix("lineitem", "l_orderkey"), ix("orders", "o_custkey"), ix("orders", "o_orderdate"),
				ix("customer", "c_mktsegment"), ix("customer", "c_custkey")}},
	} {
		stmt := sqlparser.MustParse(c.sql)
		s := &readyShape{name: c.name, e: New(On), join: c.join}
		s.fetch = func(top *catalog.Configuration) (*optimizer.Alternatives, error) {
			_, alts, err := o.OptimizeAlternatives(stmt, top)
			return alts, err
		}
		var ks []Keyed
		for _, st := range c.pool {
			ks = append(ks, keyed(st))
		}
		s.pool = ids(s.e, ks...)
		s.additive = s.pool
		for mask := 0; mask < 1<<len(ks); mask++ {
			var sub []Keyed
			for i, k := range ks {
				if mask&(1<<i) != 0 {
					sub = append(sub, k)
				}
			}
			s.subsets = append(s.subsets, ids(s.e, sub...))
		}
		for _, rel := range s.subsets {
			if _, err := s.e.Resolve(0, s.join, rel, s.additive, s.fetch); err != nil {
				tb.Fatalf("%s: %v", c.name, err)
			}
		}
		if s.e.Atoms() != 1 {
			tb.Fatalf("%s: %d fetches, want one", c.name, s.e.Atoms())
		}
		out = append(out, s)
	}
	covering := *out[0]
	covering.name, covering.additive = "earlier-phase-covering", nil
	covering.e.Settle()
	return append(out, &covering)
}

// TestResolveAllocatesNothing: resolving a configuration against a ready
// fact — every evaluation, join or flat, after a skeleton's first fetch —
// builds its top in a stack buffer and replays over
// the fact's gate positions with no string lookup, and allocates nothing,
// for single-scope, DML and join skeletons alike (a join replay's working
// memory is pooled), and for an earlier phase's fact answering by covering.
// The race detector's sync.Pool drops pooled items at random, so the join
// leg runs only without it.
func TestResolveAllocatesNothing(t *testing.T) {
	for _, s := range readyShapes(t) {
		if s.join && raceEnabled {
			continue
		}
		for _, rel := range s.subsets {
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := s.e.Resolve(0, s.join, rel, s.additive, s.fetch); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: Resolve of %v on a ready fact allocated %.1f times, want 0", s.name, rel, allocs)
			}
		}
		if s.e.Atoms() != 1 {
			t.Fatalf("%s: a ready fact was fetched again", s.name)
		}
	}
}

// BenchmarkResolve measures Resolve against a ready fact — the engine's
// cost per evaluation, join or flat, once the event's skeleton is held — for each skeleton shape, and for an earlier phase's
// fact answering by covering: one iteration resolves every subset of the
// shape's five-structure pool (32 resolutions).
func BenchmarkResolve(b *testing.B) {
	for _, s := range readyShapes(b) {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, rel := range s.subsets {
					if _, err := s.e.Resolve(0, s.join, rel, s.additive, s.fetch); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
