package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// Configuration is a physical database design: a set of indexes, a set of
// materialized views, and a range-partitioning choice per table. DTA explores
// many configurations and recommends the one with the lowest
// optimizer-estimated workload cost (paper §2.2).
type Configuration struct {
	Indexes []*Index
	Views   []*MaterializedView
	// TableParts maps table name → heap/clustered partitioning of the table.
	TableParts map[string]*PartitionScheme
}

// NewConfiguration returns an empty configuration (the "raw" design when no
// constraint indexes exist).
func NewConfiguration() *Configuration {
	return &Configuration{TableParts: make(map[string]*PartitionScheme)}
}

// Clone deep-copies the configuration.
func (c *Configuration) Clone() *Configuration {
	out := NewConfiguration()
	for _, ix := range c.Indexes {
		out.Indexes = append(out.Indexes, ix.Clone())
	}
	for _, v := range c.Views {
		out.Views = append(out.Views, v.Clone())
	}
	for t, p := range c.TableParts {
		out.TableParts[t] = p.Clone()
	}
	return out
}

// AddIndex adds an index if an identical one is not already present.
// It returns true if the index was added.
func (c *Configuration) AddIndex(ix *Index) bool {
	key := ix.Key()
	for _, e := range c.Indexes {
		if e.Key() == key {
			return false
		}
	}
	if ix.Clustered {
		// At most one clustered index (one physical row order) per table.
		for _, e := range c.Indexes {
			if e.Clustered && e.Table == ix.Table {
				return false
			}
		}
	}
	c.Indexes = append(c.Indexes, ix)
	return true
}

// AddView adds a materialized view if not already present; reports whether
// it was added.
func (c *Configuration) AddView(v *MaterializedView) bool {
	key := v.Key()
	for _, e := range c.Views {
		if e.Key() == key {
			return false
		}
	}
	c.Views = append(c.Views, v)
	return true
}

// SetTablePartitioning sets (or clears, with nil) the partitioning of a table.
func (c *Configuration) SetTablePartitioning(table string, p *PartitionScheme) {
	lt := strings.ToLower(table)
	if p == nil {
		delete(c.TableParts, lt)
		return
	}
	c.TableParts[lt] = p
}

// TablePartitioning returns the partitioning of the table, or nil.
func (c *Configuration) TablePartitioning(table string) *PartitionScheme {
	return c.TableParts[strings.ToLower(table)]
}

// ClusteredIndex returns the clustered index on the table, or nil.
func (c *Configuration) ClusteredIndex(table string) *Index {
	lt := strings.ToLower(table)
	for _, ix := range c.Indexes {
		if ix.Clustered && ix.Table == lt {
			return ix
		}
	}
	return nil
}

// IndexesOn returns all indexes on the table.
func (c *Configuration) IndexesOn(table string) []*Index {
	lt := strings.ToLower(table)
	var out []*Index
	for _, ix := range c.Indexes {
		if ix.Table == lt {
			out = append(out, ix)
		}
	}
	return out
}

// ViewsOver returns all materialized views referencing the table.
func (c *Configuration) ViewsOver(table string) []*MaterializedView {
	var out []*MaterializedView
	for _, v := range c.Views {
		if v.References(table) {
			out = append(out, v)
		}
	}
	return out
}

// StorageBytes returns the additional storage the configuration consumes
// over the raw heaps: non-clustered index leaves plus materialized views.
// Clustered indexes and partitioning are non-redundant (paper §3).
func (c *Configuration) StorageBytes(cat *Catalog) int64 {
	var b int64
	for _, ix := range c.Indexes {
		t := cat.ResolveTable(ix.Table)
		if t == nil {
			continue
		}
		b += ix.StorageBytes(t)
	}
	for _, v := range c.Views {
		b += v.StorageBytes(cat)
	}
	return b
}

// Merge unions other into c (skipping duplicates). Table partitioning from
// other wins on conflict. Used to honor user-specified configurations.
func (c *Configuration) Merge(other *Configuration) {
	if other == nil {
		return
	}
	for _, ix := range other.Indexes {
		c.AddIndex(ix.Clone())
	}
	for _, v := range other.Views {
		c.AddView(v.Clone())
	}
	for t, p := range other.TableParts {
		c.TableParts[t] = p.Clone()
	}
}

// Aligned reports whether, for every table, the table and all of its indexes
// are partitioned identically (paper §4). Unpartitioned everywhere counts as
// aligned.
func (c *Configuration) Aligned() bool {
	for _, ix := range c.Indexes {
		tp := c.TableParts[ix.Table]
		if !tp.Same(ix.Partitioning) {
			return false
		}
	}
	return true
}

// Validate checks that the configuration is realizable: at most one
// clustering (clustered index) per table, tables exist, partitioning columns
// exist, indexes reference existing columns. This is the validity check a
// user-specified configuration must pass (paper §6.2).
func (c *Configuration) Validate(cat *Catalog) error {
	clusteredSeen := map[string]string{}
	for _, ix := range c.Indexes {
		t := cat.ResolveTable(ix.Table)
		if t == nil {
			return fmt.Errorf("catalog: index %s references unknown table %q", ix.Key(), ix.Table)
		}
		if len(ix.KeyColumns) == 0 {
			return fmt.Errorf("catalog: index on %q has no key columns", ix.Table)
		}
		for _, col := range ix.AllColumns() {
			if !t.HasColumn(col) {
				return fmt.Errorf("catalog: index %s references unknown column %q", ix.Key(), col)
			}
		}
		if ix.Clustered {
			if prev, dup := clusteredSeen[ix.Table]; dup {
				return fmt.Errorf("catalog: table %q has two clusterings (%s and %s)", ix.Table, prev, ix.Key())
			}
			clusteredSeen[ix.Table] = ix.Key()
		}
		if p := ix.Partitioning; p != nil && !t.HasColumn(p.Column) {
			return fmt.Errorf("catalog: index %s partitioned on unknown column %q", ix.Key(), p.Column)
		}
	}
	// Sorted, so a configuration with several bad partitionings always
	// reports the same one.
	for _, table := range c.PartitionedTables() {
		p := c.TableParts[table]
		t := cat.ResolveTable(table)
		if t == nil {
			return fmt.Errorf("catalog: partitioning references unknown table %q", table)
		}
		if p != nil && !t.HasColumn(p.Column) {
			return fmt.Errorf("catalog: table %q partitioned on unknown column %q", table, p.Column)
		}
	}
	for _, v := range c.Views {
		for _, tn := range v.Tables {
			if cat.ResolveTable(tn) == nil {
				return fmt.Errorf("catalog: view %s references unknown table %q", v.Name, tn)
			}
		}
	}
	return nil
}

// Key returns a canonical identity string for the whole configuration,
// usable as a cache key in what-if cost caching.
func (c *Configuration) Key() string {
	parts := make([]string, 0, len(c.Indexes)+len(c.Views)+len(c.TableParts))
	for _, ix := range c.Indexes {
		parts = append(parts, ix.Key())
	}
	for _, v := range c.Views {
		parts = append(parts, v.Key())
	}
	for t, p := range c.TableParts {
		parts = append(parts, "tp:"+t+"="+p.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// Structures returns every structure in the configuration as a uniform
// Structure slice (used by enumeration and reporting): indexes, then views,
// then table partitionings sorted by table name, so the order is the same
// on every call. A nil configuration has none.
func (c *Configuration) Structures() []Structure {
	if c == nil {
		return nil
	}
	var out []Structure
	for _, ix := range c.Indexes {
		out = append(out, Structure{Index: ix})
	}
	for _, v := range c.Views {
		out = append(out, Structure{View: v})
	}
	for _, t := range c.PartitionedTables() {
		out = append(out, Structure{PartTable: t, Part: c.TableParts[t]})
	}
	return out
}

// PartitionedTables returns the names of the partitioned tables, sorted —
// the order every consumer whose output or error text must not depend on
// map iteration walks TableParts in.
func (c *Configuration) PartitionedTables() []string {
	tables := make([]string, 0, len(c.TableParts))
	for t := range c.TableParts {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	return tables
}

// Structure is a tagged union over the three physical design feature kinds.
// Exactly one of Index, View, or (PartTable, Part) is set.
type Structure struct {
	Index     *Index
	View      *MaterializedView
	PartTable string
	Part      *PartitionScheme
}

// Key returns the canonical identity of the structure.
func (s Structure) Key() string {
	switch {
	case s.Index != nil:
		return s.Index.Key()
	case s.View != nil:
		return s.View.Key()
	default:
		return "tp:" + s.PartTable + "=" + s.Part.String()
	}
}

// String renders the structure for reports.
func (s Structure) String() string {
	switch {
	case s.Index != nil:
		return s.Index.String()
	case s.View != nil:
		return s.View.String()
	default:
		return fmt.Sprintf("PARTITION TABLE %s BY %s", s.PartTable, s.Part.String())
	}
}

// StorageBytes returns the extra storage the structure consumes.
func (s Structure) StorageBytes(cat *Catalog) int64 {
	switch {
	case s.Index != nil:
		if t := cat.ResolveTable(s.Index.Table); t != nil {
			return s.Index.StorageBytes(t)
		}
		return 0
	case s.View != nil:
		return s.View.StorageBytes(cat)
	default:
		return 0 // repartitioning a heap is non-redundant
	}
}

// ApplyTo adds the structure to a configuration; reports whether the
// configuration changed.
func (s Structure) ApplyTo(c *Configuration) bool {
	switch {
	case s.Index != nil:
		return c.AddIndex(s.Index.Clone())
	case s.View != nil:
		return c.AddView(s.View.Clone())
	default:
		if c.TablePartitioning(s.PartTable).Same(s.Part) {
			return false
		}
		c.SetTablePartitioning(s.PartTable, s.Part.Clone())
		return true
	}
}
