package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// IndexData is the materialization of one index: a B+-tree over the
// table's rows keyed by the index key columns.
type IndexData struct {
	Def    *catalog.Index
	td     *TableData
	keyIdx []int // column positions of the key columns
	tree   *btree
}

// buildIndex materializes an index over current table contents.
func buildIndex(def *catalog.Index, td *TableData) (*IndexData, error) {
	ix := &IndexData{Def: def, td: td, tree: newBtree()}
	for _, kc := range def.KeyColumns {
		ci := td.ColIndex(kc)
		if ci < 0 {
			return nil, fmt.Errorf("engine: index %s: unknown column %q", def.Key(), kc)
		}
		ix.keyIdx = append(ix.keyIdx, ci)
	}
	for id := range td.Rows {
		if !td.Deleted[id] {
			ix.tree.Insert(ix.keyOf(id), id)
		}
	}
	return ix, nil
}

// keyOf extracts the index key of a row.
func (ix *IndexData) keyOf(id int) []Value {
	row := ix.td.Rows[id]
	key := make([]Value, len(ix.keyIdx))
	for i, ci := range ix.keyIdx {
		key[i] = row[ci]
	}
	return key
}

// SeekEqual returns the row ids whose leading key columns equal probe.
func (ix *IndexData) SeekEqual(probe []Value) []int {
	return ix.tree.ScanPrefix(probe, nil)
}

// SeekRange returns the row ids whose leading key column lies between lo and
// hi (nil bounds are open).
func (ix *IndexData) SeekRange(lo, hi *Value, incLo, incHi bool) []int {
	return ix.tree.ScanRange(lo, hi, incLo, incHi, nil)
}

// insertRow maintains the index for a newly appended row id.
func (ix *IndexData) insertRow(id int) {
	ix.tree.Insert(ix.keyOf(id), id)
}

// removeRow maintains the index for a deleted row id.
func (ix *IndexData) removeRow(id int) {
	ix.tree.Delete(ix.keyOf(id), id)
}

// ViewData is a materialized view's contents: rows whose schema is the
// view's output columns followed by its aggregates.
type ViewData struct {
	Def     *catalog.MaterializedView
	Columns []string // qualified names: "table.column", then agg strings
	Rows    [][]Value
	colIdx  map[string]int
	stale   bool
}

// ColIndex returns the position of the named output, or -1.
func (vd *ViewData) ColIndex(name string) int {
	if i, ok := vd.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Prepared is a database with one physical configuration materialized:
// indexes built, views computed, partitions assigned. All execution happens
// against a Prepared.
type Prepared struct {
	DB  *Database
	Cfg *catalog.Configuration

	indexes map[string]*IndexData // by index Key
	views   []*ViewData
	parts   map[string][][]int // table → partition → row ids

	// Metrics accumulates execution effort across statements.
	Metrics ExecStats
}

// ExecStats counts the physical work performed.
type ExecStats struct {
	RowsScanned    int64 // rows touched by scans and seeks
	IndexSeeks     int64
	RowsReturned   int64
	ViewsScanned   int64
	RowsMaintained int64 // index/view maintenance row operations
}

// Add accumulates counters.
func (s *ExecStats) Add(o ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.IndexSeeks += o.IndexSeeks
	s.RowsReturned += o.RowsReturned
	s.ViewsScanned += o.ViewsScanned
	s.RowsMaintained += o.RowsMaintained
}

// Materialize implements the configuration physically: builds every index,
// computes every materialized view, and assigns partitions. It validates the
// configuration first.
func (db *Database) Materialize(cfg *catalog.Configuration) (*Prepared, error) {
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	if err := cfg.Validate(db.Cat); err != nil {
		return nil, err
	}
	p := &Prepared{DB: db, Cfg: cfg, indexes: map[string]*IndexData{}, parts: map[string][][]int{}}
	for _, def := range cfg.Indexes {
		td := db.Table(def.Table)
		if td == nil {
			return nil, fmt.Errorf("engine: index on unknown table %q", def.Table)
		}
		ix, err := buildIndex(def, td)
		if err != nil {
			return nil, err
		}
		p.indexes[def.Key()] = ix
	}
	for _, table := range cfg.PartitionedTables() {
		scheme := cfg.TableParts[table]
		td := db.Table(table)
		if td == nil {
			return nil, fmt.Errorf("engine: partitioning on unknown table %q", table)
		}
		if err := p.buildPartitions(td, scheme); err != nil {
			return nil, err
		}
	}
	for _, vdef := range cfg.Views {
		vd, err := p.materializeView(vdef)
		if err != nil {
			return nil, err
		}
		p.views = append(p.views, vd)
	}
	return p, nil
}

func (p *Prepared) buildPartitions(td *TableData, scheme *catalog.PartitionScheme) error {
	ci := td.ColIndex(scheme.Column)
	if ci < 0 {
		return fmt.Errorf("engine: partition column %q missing from %q", scheme.Column, td.Meta.Name)
	}
	parts := make([][]int, scheme.Partitions())
	for id, row := range td.Rows {
		if td.Deleted[id] {
			continue
		}
		pi := scheme.Locate(row[ci].Numeric())
		parts[pi] = append(parts[pi], id)
	}
	p.parts[strings.ToLower(td.Meta.Name)] = parts
	return nil
}

// indexesOn returns materialized indexes on the table.
func (p *Prepared) indexesOn(table string) []*IndexData {
	var out []*IndexData
	for _, def := range p.Cfg.IndexesOn(table) {
		if ix := p.indexes[def.Key()]; ix != nil {
			out = append(out, ix)
		}
	}
	return out
}

// viewByKey returns the materialized view with the given definition key.
func (p *Prepared) viewByKey(key string) *ViewData {
	for _, vd := range p.views {
		if vd.Def.Key() == key {
			if vd.stale {
				fresh, err := p.materializeView(vd.Def)
				if err == nil {
					*vd = *fresh
				}
			}
			return vd
		}
	}
	return nil
}

// invalidateViews marks views over the table stale; they rebuild on next
// access, and the rebuild effort is charged to maintenance eagerly.
func (p *Prepared) invalidateViews(table string, changedRows int64) {
	for _, vd := range p.views {
		if vd.Def.References(table) {
			vd.stale = true
			p.Metrics.RowsMaintained += changedRows * int64(len(vd.Def.Tables))
		}
	}
}
