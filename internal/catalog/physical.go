package catalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PartitionScheme is a single-column horizontal range partitioning, the form
// supported by SQL Server 2005 and by this reproduction (paper §2.2). The
// boundary values split the domain into len(Boundaries)+1 ranges using
// RANGE RIGHT semantics: partition i holds values v with
// Boundaries[i-1] <= v < Boundaries[i].
type PartitionScheme struct {
	Column     string
	Boundaries []float64 // strictly increasing
}

// NewPartitionScheme builds a canonical scheme: boundaries sorted and
// deduplicated, column lower-cased.
func NewPartitionScheme(column string, boundaries ...float64) *PartitionScheme {
	b := append([]float64(nil), boundaries...)
	sort.Float64s(b)
	out := b[:0]
	for i, v := range b {
		if i == 0 || v != b[i-1] {
			out = append(out, v)
		}
	}
	return &PartitionScheme{Column: strings.ToLower(column), Boundaries: out}
}

// Partitions returns the number of ranges the scheme produces.
func (p *PartitionScheme) Partitions() int {
	if p == nil {
		return 1
	}
	return len(p.Boundaries) + 1
}

// Locate returns the partition ordinal holding value v.
func (p *PartitionScheme) Locate(v float64) int {
	if p == nil {
		return 0
	}
	return sort.SearchFloat64s(p.Boundaries, v+1e-12) // RANGE RIGHT: v < boundary stays left
}

// Same reports whether two schemes partition identically — the alignment
// relation of paper §4. Two nil schemes (both unpartitioned) are aligned.
func (p *PartitionScheme) Same(o *PartitionScheme) bool {
	if p == nil || o == nil {
		return p == nil && o == nil
	}
	if p.Column != o.Column || len(p.Boundaries) != len(o.Boundaries) {
		return false
	}
	for i := range p.Boundaries {
		if p.Boundaries[i] != o.Boundaries[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the scheme (nil-safe).
func (p *PartitionScheme) Clone() *PartitionScheme {
	if p == nil {
		return nil
	}
	return &PartitionScheme{Column: p.Column, Boundaries: append([]float64(nil), p.Boundaries...)}
}

// String renders the scheme for reports, e.g. "RANGE(col) [10, 20]".
func (p *PartitionScheme) String() string {
	if p == nil {
		return "NONE"
	}
	// strconv's shortest 'g' form is fmt's %g, byte for byte, so keys
	// rendered here match keys persisted by earlier versions.
	b := make([]byte, 0, len("RANGE() []")+len(p.Column)+12*len(p.Boundaries))
	b = append(b, "RANGE("...)
	b = append(b, p.Column...)
	b = append(b, ") ["...)
	for i, f := range p.Boundaries {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return string(append(b, ']'))
}

// Index is a (possibly clustered, possibly partitioned) B-tree index.
// A clustered index is the table itself ordered by the key and therefore
// adds negligible storage; a non-clustered index stores key columns plus
// included columns in its leaves plus a row locator.
type Index struct {
	Table        string
	KeyColumns   []string // ordered; order matters for seeks and sorts
	IncludeCols  []string // leaf-only columns for covering
	Clustered    bool
	Partitioning *PartitionScheme // nil means non-partitioned
	// FromConstraint marks indexes that enforce referential integrity or
	// uniqueness; the "raw" configuration of the experiments (§7.1) keeps
	// exactly these.
	FromConstraint bool
}

// NewIndex builds an index with canonical lower-case identifiers.
func NewIndex(table string, keys ...string) *Index {
	k := make([]string, len(keys))
	for i, c := range keys {
		k[i] = strings.ToLower(c)
	}
	return &Index{Table: strings.ToLower(table), KeyColumns: k}
}

// WithInclude adds included (leaf-only) columns and returns the index.
func (ix *Index) WithInclude(cols ...string) *Index {
	for _, c := range cols {
		ix.IncludeCols = append(ix.IncludeCols, strings.ToLower(c))
	}
	return ix
}

// AllColumns returns key plus included columns (order preserved).
func (ix *Index) AllColumns() []string {
	out := make([]string, 0, len(ix.KeyColumns)+len(ix.IncludeCols))
	out = append(out, ix.KeyColumns...)
	out = append(out, ix.IncludeCols...)
	return out
}

// Covers reports whether the index leaf carries every column in need
// (compared lower-cased). It scans the key and included columns in place:
// the optimizer's access-path and probe choices call it once per index and
// scope, so it allocates nothing for lower-case column names.
func (ix *Index) Covers(need []string) bool {
	if ix.Clustered {
		return true // clustered index is the table
	}
	for _, c := range need {
		c = strings.ToLower(c)
		if !contains(ix.KeyColumns, c) && !contains(ix.IncludeCols, c) {
			return false
		}
	}
	return true
}

func contains(cols []string, c string) bool {
	for _, have := range cols {
		if have == c {
			return true
		}
	}
	return false
}

// Key returns a canonical identity string: two indexes with the same key are
// the same physical design structure.
func (ix *Index) Key() string {
	var b strings.Builder
	if ix.Clustered {
		b.WriteString("cix:")
	} else {
		b.WriteString("ix:")
	}
	b.WriteString(ix.Table)
	b.WriteByte('(')
	b.WriteString(strings.Join(ix.KeyColumns, ","))
	b.WriteByte(')')
	if len(ix.IncludeCols) > 0 {
		inc := append([]string(nil), ix.IncludeCols...)
		sort.Strings(inc)
		b.WriteString(" include(")
		b.WriteString(strings.Join(inc, ","))
		b.WriteByte(')')
	}
	if ix.Partitioning != nil {
		b.WriteString(" part ")
		b.WriteString(ix.Partitioning.String())
	}
	return b.String()
}

// String renders a DDL-like description for reports.
func (ix *Index) String() string {
	kind := "INDEX"
	if ix.Clustered {
		kind = "CLUSTERED INDEX"
	}
	s := fmt.Sprintf("%s ON %s (%s)", kind, ix.Table, strings.Join(ix.KeyColumns, ", "))
	if len(ix.IncludeCols) > 0 {
		s += fmt.Sprintf(" INCLUDE (%s)", strings.Join(ix.IncludeCols, ", "))
	}
	if ix.Partitioning != nil {
		s += " PARTITION BY " + ix.Partitioning.String()
	}
	return s
}

// Clone deep-copies the index.
func (ix *Index) Clone() *Index {
	out := *ix
	out.KeyColumns = append([]string(nil), ix.KeyColumns...)
	out.IncludeCols = append([]string(nil), ix.IncludeCols...)
	out.Partitioning = ix.Partitioning.Clone()
	return &out
}

// LeafEntryWidth returns the width of one leaf entry of the index on t.
func (ix *Index) LeafEntryWidth(t *Table) int {
	const ridWidth = 8
	return t.ColumnWidth(ix.AllColumns()) + ridWidth
}

// Pages returns the number of leaf pages of the index on table t. Clustered
// indexes return the table's own pages (they are the table).
func (ix *Index) Pages(t *Table) int64 {
	if ix.Clustered {
		return t.Pages()
	}
	return pagesFor(t.Rows, ix.LeafEntryWidth(t))
}

// StorageBytes returns the extra storage the index consumes: zero for a
// clustered index or partitioning (non-redundant structures, §3), leaf pages
// for non-clustered indexes.
func (ix *Index) StorageBytes(t *Table) int64 {
	if ix.Clustered {
		return 0
	}
	return ix.Pages(t) * PageSize
}

// ColRef names a column of a table.
type ColRef struct {
	Table  string
	Column string
}

// NewColRef builds a lower-cased column reference.
func NewColRef(table, column string) ColRef {
	return ColRef{Table: strings.ToLower(table), Column: strings.ToLower(column)}
}

// String renders "table.column".
func (c ColRef) String() string { return c.Table + "." + c.Column }

// JoinPred is an equality join predicate between two columns.
type JoinPred struct {
	Left, Right ColRef
}

// Canon returns the predicate with sides ordered canonically.
func (j JoinPred) Canon() JoinPred {
	if j.Left.String() > j.Right.String() {
		return JoinPred{Left: j.Right, Right: j.Left}
	}
	return j
}

// String renders "a.x = b.y".
func (j JoinPred) String() string {
	c := j.Canon()
	return c.Left.String() + " = " + c.Right.String()
}

// Agg is an aggregate output of a materialized view.
type Agg struct {
	Func string // COUNT, SUM, AVG, MIN, MAX; COUNT(*) has empty Col.Column
	Col  ColRef
}

// String renders "SUM(t.c)".
func (a Agg) String() string {
	if a.Col.Column == "" {
		return strings.ToUpper(a.Func) + "(*)"
	}
	return strings.ToUpper(a.Func) + "(" + a.Col.String() + ")"
}

// MaterializedView is the structural description of a materialized view
// candidate: the join of Tables on JoinPreds, grouped by GroupBy with
// aggregates Aggs, carrying OutputColumns so residual predicates can still
// be applied on top of the view. A view with no GroupBy is an SPJ view.
type MaterializedView struct {
	Name      string
	Tables    []string // sorted, lower-case
	JoinPreds []JoinPred
	// OutputColumns are plain columns available in the view (selection /
	// residual-predicate columns). For grouped views these must appear in
	// GroupBy; the constructor enforces that by unioning them in.
	OutputColumns []ColRef
	GroupBy       []ColRef
	Aggs          []Agg
	Rows          int64 // estimated cardinality at creation time
	Partitioning  *PartitionScheme
}

// NewMaterializedView builds a canonical view descriptor.
func NewMaterializedView(tables []string, joins []JoinPred, out []ColRef, groupBy []ColRef, aggs []Agg, rows int64) *MaterializedView {
	v := &MaterializedView{Rows: rows}
	seen := map[string]bool{}
	for _, t := range tables {
		lt := strings.ToLower(t)
		if !seen[lt] {
			seen[lt] = true
			v.Tables = append(v.Tables, lt)
		}
	}
	sort.Strings(v.Tables)
	for _, j := range joins {
		v.JoinPreds = append(v.JoinPreds, j.Canon())
	}
	sort.Slice(v.JoinPreds, func(i, k int) bool { return v.JoinPreds[i].String() < v.JoinPreds[k].String() })
	if len(groupBy) > 0 {
		// Grouped views can only expose grouping columns as plain output, so
		// any extra output column (e.g. a predicate column) joins the
		// grouping: GroupBy and OutputColumns coincide.
		v.GroupBy = canonCols(append(append([]ColRef(nil), groupBy...), out...))
		v.OutputColumns = append([]ColRef(nil), v.GroupBy...)
	} else {
		v.OutputColumns = canonCols(out)
	}
	v.Aggs = append(v.Aggs, aggs...)
	sort.Slice(v.Aggs, func(i, k int) bool { return v.Aggs[i].String() < v.Aggs[k].String() })
	dedupAggs := v.Aggs[:0]
	var last string
	for _, a := range v.Aggs {
		if s := a.String(); s != last {
			dedupAggs = append(dedupAggs, a)
			last = s
		}
	}
	v.Aggs = dedupAggs
	v.Name = v.Key()
	return v
}

func canonCols(cols []ColRef) []ColRef {
	seen := map[string]bool{}
	var out []ColRef
	for _, c := range cols {
		c = NewColRef(c.Table, c.Column)
		if !seen[c.String()] {
			seen[c.String()] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].String() < out[k].String() })
	return out
}

// RowWidth returns the width of one view row.
func (v *MaterializedView) RowWidth(cat *Catalog) int {
	const rowHeader = 10
	w := rowHeader
	for _, c := range v.OutputColumns {
		if t := cat.ResolveTable(c.Table); t != nil {
			if col := t.Column(c.Column); col != nil {
				w += col.Width
				continue
			}
		}
		w += 8
	}
	w += 8 * len(v.Aggs)
	return w
}

// Pages returns the number of pages the materialized view occupies.
func (v *MaterializedView) Pages(cat *Catalog) int64 {
	return pagesFor(v.Rows, v.RowWidth(cat))
}

// StorageBytes returns the storage the view consumes.
func (v *MaterializedView) StorageBytes(cat *Catalog) int64 {
	return v.Pages(cat) * PageSize
}

// References reports whether the view reads the named table (and therefore
// must be maintained when that table is updated).
func (v *MaterializedView) References(table string) bool {
	lt := strings.ToLower(table)
	i := sort.SearchStrings(v.Tables, lt)
	return i < len(v.Tables) && v.Tables[i] == lt
}

// Key returns the canonical identity of the view.
func (v *MaterializedView) Key() string {
	var b strings.Builder
	b.WriteString("mv:")
	b.WriteString(strings.Join(v.Tables, ","))
	b.WriteString(" join{")
	for i, j := range v.JoinPreds {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(j.String())
	}
	b.WriteString("} out{")
	for i, c := range v.OutputColumns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteString("} grp{")
	for i, c := range v.GroupBy {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteString("} agg{")
	for i, a := range v.Aggs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	b.WriteByte('}')
	if v.Partitioning != nil {
		b.WriteString(" part ")
		b.WriteString(v.Partitioning.String())
	}
	return b.String()
}

// String renders a short human-readable description.
func (v *MaterializedView) String() string {
	s := fmt.Sprintf("MATERIALIZED VIEW over (%s)", strings.Join(v.Tables, " ⋈ "))
	if len(v.GroupBy) > 0 {
		g := make([]string, len(v.GroupBy))
		for i, c := range v.GroupBy {
			g[i] = c.String()
		}
		s += " GROUP BY " + strings.Join(g, ", ")
	}
	if len(v.Aggs) > 0 {
		a := make([]string, len(v.Aggs))
		for i, ag := range v.Aggs {
			a[i] = ag.String()
		}
		s += " AGG " + strings.Join(a, ", ")
	}
	if v.Partitioning != nil {
		s += " PARTITION BY " + v.Partitioning.String()
	}
	return s
}

// Clone deep-copies the view.
func (v *MaterializedView) Clone() *MaterializedView {
	out := *v
	out.Tables = append([]string(nil), v.Tables...)
	out.JoinPreds = append([]JoinPred(nil), v.JoinPreds...)
	out.OutputColumns = append([]ColRef(nil), v.OutputColumns...)
	out.GroupBy = append([]ColRef(nil), v.GroupBy...)
	out.Aggs = append([]Agg(nil), v.Aggs...)
	out.Partitioning = v.Partitioning.Clone()
	return &out
}
