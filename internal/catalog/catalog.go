// Package catalog models the logical schema (databases, tables, columns,
// constraints) and the physical design structures (indexes, materialized
// views, horizontal range partitioning) that the Database Tuning Advisor
// reasons about.
//
// The catalog is purely metadata: sizes, widths, domains and distinct counts.
// It is the information the query optimizer fundamentally relies on when
// generating a plan, which is why a test server holding only the catalog and
// statistics can stand in for a production server during tuning (paper §5.3).
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// PageSize is the size in bytes of one storage page. All page-count
// arithmetic in the optimizer and the engine uses this unit.
const PageSize = 8192

// Type is the data type of a column.
type Type int

// Column data types supported by the system.
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
	TypeDate // stored as days since epoch, behaves numerically
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Numeric reports whether values of the type are ordered numerically
// (everything except strings, which order lexicographically).
func (t Type) Numeric() bool { return t != TypeString }

// Column describes one column of a table: its type, storage width, and the
// ground-truth domain information from which statistics are built.
type Column struct {
	Name     string
	Type     Type
	Width    int     // storage width in bytes
	Distinct int64   // number of distinct values in the column
	Min, Max float64 // numeric domain (dictionary codes for strings)
	// NullFrac is the fraction of NULL values (0 for all generated data,
	// kept so selectivity math stays honest if loaders set it).
	NullFrac float64
}

// ForeignKey records a referential-integrity constraint from Columns of the
// owning table to RefColumns of RefTable.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Table is the logical description of one table.
type Table struct {
	DB      string
	Name    string
	Columns []*Column
	Rows    int64

	PrimaryKey  []string
	UniqueKeys  [][]string
	ForeignKeys []ForeignKey

	byName map[string]*Column
}

// NewTable creates a table with the given columns and row count.
func NewTable(db, name string, rows int64, cols ...*Column) *Table {
	t := &Table{DB: db, Name: name, Rows: rows, Columns: cols}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.byName = make(map[string]*Column, len(t.Columns))
	for _, c := range t.Columns {
		t.byName[strings.ToLower(c.Name)] = c
	}
}

// Column returns the named column, or nil if the table has no such column.
// Lookup is case-insensitive, matching SQL identifier semantics.
func (t *Table) Column(name string) *Column {
	if t.byName == nil {
		t.reindex()
	}
	return t.byName[strings.ToLower(name)]
}

// HasColumn reports whether the table has the named column.
func (t *Table) HasColumn(name string) bool { return t.Column(name) != nil }

// RowWidth returns the width in bytes of one row, including a fixed
// per-row header.
func (t *Table) RowWidth() int {
	const rowHeader = 10
	w := rowHeader
	for _, c := range t.Columns {
		w += c.Width
	}
	return w
}

// Pages returns the number of pages the heap occupies.
func (t *Table) Pages() int64 {
	return pagesFor(t.Rows, t.RowWidth())
}

// Bytes returns the heap size in bytes.
func (t *Table) Bytes() int64 { return t.Pages() * PageSize }

// ColumnWidth returns the total width of the named columns plus a per-entry
// overhead, used to size index leaf entries and view rows.
func (t *Table) ColumnWidth(names []string) int {
	const entryHeader = 8
	w := entryHeader
	for _, n := range names {
		if c := t.Column(n); c != nil {
			w += c.Width
		} else {
			w += 8 // unknown columns cost a word; keeps math defined
		}
	}
	return w
}

// DistinctOf returns the distinct count of the named column, or the table
// row count if the column is unknown.
func (t *Table) DistinctOf(name string) int64 {
	if c := t.Column(name); c != nil && c.Distinct > 0 {
		return c.Distinct
	}
	return t.Rows
}

func pagesFor(rows int64, width int) int64 {
	if rows <= 0 {
		return 1
	}
	perPage := int64(PageSize / width)
	if perPage < 1 {
		perPage = 1
	}
	p := (rows + perPage - 1) / perPage
	if p < 1 {
		p = 1
	}
	return p
}

// PagesFor is the shared "how many pages do n rows of width w occupy"
// computation, exported for the optimizer and engine.
func PagesFor(rows int64, width int) int64 { return pagesFor(rows, width) }

// Database is a named collection of tables.
type Database struct {
	Name   string
	Tables []*Table
	byName map[string]*Table
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, byName: make(map[string]*Table)}
}

// AddTable registers a table with the database, overwriting any table with
// the same (case-insensitive) name.
func (d *Database) AddTable(t *Table) {
	t.DB = d.Name
	key := strings.ToLower(t.Name)
	if _, dup := d.byName[key]; dup {
		for i, old := range d.Tables {
			if strings.EqualFold(old.Name, t.Name) {
				d.Tables[i] = t
				break
			}
		}
	} else {
		d.Tables = append(d.Tables, t)
	}
	d.byName[key] = t
}

// Table returns the named table or nil.
func (d *Database) Table(name string) *Table {
	return d.byName[strings.ToLower(name)]
}

// Bytes returns the total raw data size of the database.
func (d *Database) Bytes() int64 {
	var b int64
	for _, t := range d.Tables {
		b += t.Bytes()
	}
	return b
}

// Catalog is the set of databases on one server. Many applications use more
// than one database, and DTA tunes several simultaneously (paper §2.1).
type Catalog struct {
	Databases []*Database
	byName    map[string]*Database
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{byName: make(map[string]*Database)}
}

// AddDatabase registers a database with the catalog.
func (c *Catalog) AddDatabase(d *Database) {
	key := strings.ToLower(d.Name)
	if _, dup := c.byName[key]; !dup {
		c.Databases = append(c.Databases, d)
	}
	c.byName[key] = d
}

// Database returns the named database or nil.
func (c *Catalog) Database(name string) *Database {
	return c.byName[strings.ToLower(name)]
}

// ResolveTable finds a table by name across all databases. Returns nil if
// the name is unknown or ambiguous across databases.
func (c *Catalog) ResolveTable(name string) *Table {
	var found *Table
	for _, d := range c.Databases {
		if t := d.Table(name); t != nil {
			if found != nil {
				return nil // ambiguous
			}
			found = t
		}
	}
	return found
}

// Tables returns all tables across all databases.
func (c *Catalog) Tables() []*Table {
	var out []*Table
	for _, d := range c.Databases {
		out = append(out, d.Tables...)
	}
	return out
}

// Bytes returns the total raw data size across databases.
func (c *Catalog) Bytes() int64 {
	var b int64
	for _, d := range c.Databases {
		b += d.Bytes()
	}
	return b
}

// Clone returns a deep copy of the catalog metadata. Cloning is what the
// production/test server scenario calls "importing metadata": it copies
// table and constraint definitions but, by construction, no data.
func (c *Catalog) Clone() *Catalog {
	out := New()
	for _, d := range c.Databases {
		nd := NewDatabase(d.Name)
		for _, t := range d.Tables {
			cols := make([]*Column, len(t.Columns))
			for i, col := range t.Columns {
				cc := *col
				cols[i] = &cc
			}
			nt := NewTable(d.Name, t.Name, t.Rows, cols...)
			nt.PrimaryKey = append([]string(nil), t.PrimaryKey...)
			for _, u := range t.UniqueKeys {
				nt.UniqueKeys = append(nt.UniqueKeys, append([]string(nil), u...))
			}
			for _, fk := range t.ForeignKeys {
				nt.ForeignKeys = append(nt.ForeignKeys, ForeignKey{
					Columns:    append([]string(nil), fk.Columns...),
					RefTable:   fk.RefTable,
					RefColumns: append([]string(nil), fk.RefColumns...),
				})
			}
			nd.AddTable(nt)
		}
		out.AddDatabase(nd)
	}
	return out
}

// ColumnGroup is an unordered set of columns of one table, the unit over
// which DTA's column-group restriction step works (paper §2.2).
type ColumnGroup struct {
	Table   string
	Columns []string // kept sorted, lower-case
}

// NewColumnGroup builds a canonical (sorted, lower-cased, deduplicated)
// column group.
func NewColumnGroup(table string, cols ...string) ColumnGroup {
	seen := make(map[string]bool, len(cols))
	out := make([]string, 0, len(cols))
	for _, c := range cols {
		lc := strings.ToLower(c)
		if !seen[lc] {
			seen[lc] = true
			out = append(out, lc)
		}
	}
	sort.Strings(out)
	return ColumnGroup{Table: strings.ToLower(table), Columns: out}
}

// Key returns a canonical string key for map usage.
func (g ColumnGroup) Key() string {
	return g.Table + "(" + strings.Join(g.Columns, ",") + ")"
}

// Contains reports whether the group contains the column.
func (g ColumnGroup) Contains(col string) bool {
	lc := strings.ToLower(col)
	i := sort.SearchStrings(g.Columns, lc)
	return i < len(g.Columns) && g.Columns[i] == lc
}
