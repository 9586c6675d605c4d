// Package setquery generates the SYNT1 synthetic database and workload of
// paper §7.4: a database conforming to the Set Query benchmark schema (one
// BENCH table whose kN columns have exactly N distinct values) and a
// workload of 8000 SPJ queries with grouping and aggregation drawn from
// approximately 100 distinct templates, each instance differing only in its
// constants. The heavy templatization is what makes workload compression
// shine (the paper reports a 43x tuning speedup at ~1% quality loss).
package setquery

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/workload"
)

// kCols lists the classic Set Query benchmark selectivity columns and their
// distinct counts.
var kCols = []struct {
	name     string
	distinct int64
}{
	{"k2", 2}, {"k4", 4}, {"k5", 5}, {"k10", 10}, {"k25", 25},
	{"k100", 100}, {"k1k", 1000}, {"k10k", 10000}, {"k40k", 40000},
	{"k100k", 100000}, {"k250k", 250000}, {"k500k", 500000},
}

// Catalog builds the BENCH schema with the given row count (the benchmark's
// canonical size is 1M rows; the paper's SYNT1 database is sized in the
// hundreds of MB).
func Catalog(rows int64) *catalog.Catalog {
	cat := catalog.New()
	db := catalog.NewDatabase("synt1")
	cols := []*catalog.Column{
		{Name: "kseq", Type: catalog.TypeInt, Width: 8, Distinct: rows, Min: 1, Max: float64(rows)},
	}
	for _, k := range kCols {
		d := k.distinct
		if d > rows {
			d = rows
		}
		cols = append(cols, &catalog.Column{
			Name: k.name, Type: catalog.TypeInt, Width: 8, Distinct: d, Min: 1, Max: float64(d),
		})
	}
	for i := 1; i <= 8; i++ {
		cols = append(cols, &catalog.Column{
			Name: fmt.Sprintf("s%d", i), Type: catalog.TypeString, Width: 20,
			Distinct: rows, Min: 0, Max: float64(rows - 1),
		})
	}
	db.AddTable(catalog.NewTable("synt1", "bench", rows, cols...))
	cat.AddDatabase(db)
	db.Table("bench").PrimaryKey = []string{"kseq"}
	return cat
}

// Load generates deterministic BENCH rows. The table stays in memory for the
// life of the server that holds it, and every garbage collection marks it, so
// it is laid out for the collector: every row is a window of one value slab,
// and a row's eight strings share one allocation — one object per row to mark
// instead of nine.
func Load(cat *catalog.Catalog, seed int64) (*engine.Database, error) {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase(cat)
	t := cat.ResolveTable("bench")
	rows := make([][]engine.Value, 0, t.Rows)
	vals := make([]engine.Value, 0, int(t.Rows)*len(t.Columns))
	var text []byte
	var ends [8]int
	for i := int64(1); i <= t.Rows; i++ {
		start := len(vals)
		vals = append(vals, engine.Num(float64(i)))
		for _, k := range kCols {
			d := k.distinct
			if d > t.Rows {
				d = t.Rows
			}
			vals = append(vals, engine.Num(float64(rng.Int63n(d)+1)))
		}
		text = text[:0]
		for s := range ends {
			text = fmt.Appendf(text, "s%d-%010d", s+1, i)
			ends[s] = len(text)
		}
		str, from := string(text), 0
		for _, end := range ends {
			vals = append(vals, engine.Str(str[from:end]))
			from = end
		}
		rows = append(rows, vals[start:len(vals):len(vals)])
	}
	if err := db.Load("bench", rows); err != nil {
		return nil, err
	}
	db.SyncRowCounts()
	return db, nil
}

// template is one randomly structured query shape.
type template struct {
	selCols  []string // equality/range selection columns
	selRange []bool   // range vs equality per selection column
	groupBy  []string
	aggFunc  []string
	aggCol   []string
}

var aggFuncs = []string{"SUM", "COUNT", "AVG", "MIN", "MAX"}

// Templates generates n deterministic query templates by randomly selecting
// selection columns, grouping columns and aggregation columns/functions
// (the construction of paper §7.4).
func templates(n int, rng *rand.Rand) []template {
	out := make([]template, 0, n)
	for len(out) < n {
		var t template
		nSel := 1 + rng.Intn(2)
		perm := rng.Perm(len(kCols))
		for i := 0; i < nSel; i++ {
			t.selCols = append(t.selCols, kCols[perm[i]].name)
			t.selRange = append(t.selRange, rng.Intn(3) == 0)
		}
		nGrp := rng.Intn(3)
		for i := 0; i < nGrp; i++ {
			t.groupBy = append(t.groupBy, kCols[perm[nSel+i]].name)
		}
		nAgg := 1 + rng.Intn(2)
		for i := 0; i < nAgg; i++ {
			t.aggFunc = append(t.aggFunc, aggFuncs[rng.Intn(len(aggFuncs))])
			t.aggCol = append(t.aggCol, kCols[perm[(nSel+nGrp+i)%len(kCols)]].name)
		}
		out = append(out, t)
	}
	return out
}

// instantiate renders one instance of the template with fresh constants.
func (t template) instantiate(cat *catalog.Catalog, rng *rand.Rand) string {
	bench := cat.ResolveTable("bench")
	sql := "SELECT "
	for i, g := range t.groupBy {
		if i > 0 {
			sql += ", "
		}
		sql += g
	}
	for i := range t.aggFunc {
		if i > 0 || len(t.groupBy) > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf("%s(%s)", t.aggFunc[i], t.aggCol[i])
	}
	sql += " FROM bench WHERE "
	for i, c := range t.selCols {
		if i > 0 {
			sql += " AND "
		}
		d := bench.DistinctOf(c)
		v := rng.Int63n(d) + 1
		if t.selRange[i] {
			span := d/10 + 1
			sql += fmt.Sprintf("%s BETWEEN %d AND %d", c, v, v+span)
		} else {
			sql += fmt.Sprintf("%s = %d", c, v)
		}
	}
	if len(t.groupBy) > 0 {
		sql += " GROUP BY "
		for i, g := range t.groupBy {
			if i > 0 {
				sql += ", "
			}
			sql += g
		}
	}
	return sql
}

// Trace returns a reader that lazily renders the SYNT1 workload as a
// profiler trace in the workload.ReadTrace line format ("1<TAB>SQL", one
// event per line). The statement sequence is exactly what Workload produces
// for the same arguments — same seed, same template draw, same constants —
// so batch and streaming ingestion of matching parameters tune identical
// events. Lines are generated on demand as the reader is drained: memory
// stays O(1) in events, so a caller can push million-event traces through
// the streaming path (the repository benchmark's daemon-drift chunks, say)
// without materializing them.
func Trace(cat *catalog.Catalog, events, templateCount int, seed int64) io.Reader {
	rng := rand.New(rand.NewSource(seed))
	return &traceReader{cat: cat, tmpls: templates(templateCount, rng), rng: rng, events: events}
}

// traceReader lazily renders trace lines; see Trace.
type traceReader struct {
	cat    *catalog.Catalog
	tmpls  []template
	rng    *rand.Rand
	events int
	next   int
	buf    []byte
}

func (t *traceReader) Read(p []byte) (int, error) {
	for len(t.buf) == 0 {
		if t.next >= t.events {
			return 0, io.EOF
		}
		tm := t.tmpls[t.next%len(t.tmpls)]
		t.buf = append(t.buf[:0], "1\t"...)
		t.buf = append(t.buf, tm.instantiate(t.cat, t.rng)...)
		t.buf = append(t.buf, '\n')
		t.next++
	}
	n := copy(p, t.buf)
	t.buf = t.buf[n:]
	return n, nil
}

// Workload generates the SYNT1 workload: events queries drawn from
// templateCount templates.
func Workload(cat *catalog.Catalog, events, templateCount int, seed int64) *workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	tmpls := templates(templateCount, rng)
	w := &workload.Workload{}
	for i := 0; i < events; i++ {
		t := tmpls[i%len(tmpls)]
		if err := w.Add(t.instantiate(cat, rng), 1); err != nil {
			// Templates are generated from the schema; instantiation cannot
			// produce invalid SQL.
			panic(err)
		}
	}
	return w
}
