package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// Maintenance cost constants (sequential-page units).
const (
	baseWritePerRow = 0.002 // write one heap/clustered row
	viewMaintPerRow = 0.02  // incremental maintenance of one view per changed row
)

// indexMaintPerRow returns the per-row maintenance cost of one index: a
// B-tree descent plus a leaf write.
func (c *optContext) indexMaintPerRow() float64 {
	return 2*c.hw().RandomFactor*0.25 + baseWritePerRow
}

// MaintTerm is the maintenance charge of one index or view a DML statement
// must keep up to date. Its cost depends only on the affected row count and
// the structure itself, never on which other structures are present.
type MaintTerm struct {
	// Gate is the additive structure key that must be present for the term
	// to apply ("" = a clustered index, a base structure every
	// sub-configuration of a derivation scope shares).
	Gate string
	// Struct is the maintained structure's key.
	Struct string
	// Cost is the affected rows times the structure's per-row maintenance.
	Cost float64
}

// Maintenance is the plan skeleton of an INSERT, UPDATE or DELETE: a sum
// whose every part depends only on whether its structure is present. The
// cost under any sub-configuration is Fixed, plus the cheapest available
// access alternative (UPDATE and DELETE; the affected rows are the scope's
// filtered cardinality on every path), plus the terms whose structures are
// present, added in the listed ascending-key order — the float sequence
// optimizeDML runs.
type Maintenance struct {
	// Fixed is the startup cost plus the base-data write of every affected
	// row.
	Fixed float64
	// Access lists the access paths locating the affected rows (empty for
	// an INSERT).
	Access []ScopeAlt
	// Terms lists the maintained structures, ascending by key.
	Terms []MaintTerm
}

// replay replays the maintenance sum over the structures has reports
// present, storing the used structures (the winning access's and every
// maintained one's) in *used when used is non-nil. ok is false only when an
// UPDATE/DELETE skeleton offers no available access path, which a
// capture-built one cannot (the base scan is gateless).
func (m *Maintenance) replay(has func(string) bool, used *[]string) (float64, bool) {
	avail := func(gate string) bool { return gate == "" || has(gate) }
	cost := m.Fixed
	var keys []string
	if len(m.Access) > 0 {
		var win *ScopeAlt
		for k := range m.Access {
			a := &m.Access[k]
			if avail(a.Gate) && (win == nil || scopeAltLess(a, win)) {
				win = a
			}
		}
		if win == nil {
			return 0, false
		}
		cost += win.Pre
		if used != nil && win.Struct != "" {
			keys = append(keys, win.Struct)
		}
	}
	for _, t := range m.Terms {
		if avail(t.Gate) {
			cost += t.Cost
			if used != nil {
				keys = append(keys, t.Struct)
			}
		}
	}
	if used != nil {
		slices.Sort(keys)
		*used = slices.Compact(keys)
	}
	return cost, true
}

// optimizeDML costs an INSERT, UPDATE or DELETE — locating the affected rows
// (UPDATE/DELETE), writing them, and maintaining every index and view over
// the target table; an UPDATE maintains only the structures its modified
// columns touch. This is what makes redundant structures expensive for
// update-intensive workloads (paper §3). The plan and its maintenance
// skeleton come out of the same loop, so a replay of the skeleton runs the
// plan's own float operations in the same order.
func (c *optContext) optimizeDML(stmt sqlparser.Statement) (*Plan, *Maintenance, error) {
	q, err := c.opt.analyze(stmt)
	if err != nil {
		return nil, nil, err
	}
	scope := q.Scopes[0]
	t := scope.Table
	m := &Maintenance{}
	op := "Delete"
	var modified map[string]bool
	switch q.Kind {
	case KindInsert:
		op = "Insert"
	case KindUpdate:
		op, modified = "Update", map[string]bool{}
		for _, col := range q.SetColumns {
			modified[col] = true
		}
	}
	var access *Plan
	rows := math.Max(1, float64(q.InsertRowCount))
	if q.Kind != KindInsert {
		paths := c.accessPaths(scope)
		best := cheapestPath(paths)
		access, rows = best.plan, best.rows
		m.Access = scopeAlts(paths)
	}

	m.Fixed = startupCost + rows*baseWritePerRow
	cost := m.Fixed
	var children []*Plan
	if access != nil {
		cost += access.Cost
		children = append(children, access)
	}
	for _, n := range c.maintenanceTerms(t.Name, rows, modified) {
		cost += n.plan.Cost
		children = append(children, n.plan)
		m.Terms = append(m.Terms, MaintTerm{Gate: n.gate, Struct: n.plan.Structure, Cost: n.plan.Cost})
	}
	detail := fmt.Sprintf("%s %s (%d structures maintained)", op, t.Name, len(children))
	return &Plan{Op: op, Detail: detail, Cost: cost, Rows: rows, Children: children}, m, nil
}

// maintNode is one maintenance plan node with its skeleton gate.
type maintNode struct {
	plan *Plan
	gate string
}

// maintenanceTerms lists the maintenance of every index and view over the
// table, ascending by structure key: terms differ per structure and float
// addition is not associative, so summing them in the configuration's
// listing order would make two configurations holding the same set cost
// differently. modifiedCols, when non-nil (UPDATE), restricts maintenance to
// the structures those columns touch — for a clustered index, to a moved key.
func (c *optContext) maintenanceTerms(table string, rows float64, modifiedCols map[string]bool) []maintNode {
	var out []maintNode
	touches := func(cols []string) bool {
		return modifiedCols == nil || slices.ContainsFunc(cols, func(col string) bool { return modifiedCols[col] })
	}
	for _, ix := range c.cfg.IndexesOn(table) {
		cols, gate := ix.AllColumns(), ix.Key()
		if ix.Clustered {
			// A clustered index is maintained only when its key moves.
			cols, gate = ix.KeyColumns, ""
		}
		if !touches(cols) {
			continue
		}
		out = append(out, maintNode{gate: gate, plan: &Plan{Op: "IndexMaintenance", Detail: ix.String(),
			Cost: rows * c.indexMaintPerRow(), Rows: rows, Structure: ix.Key()}})
	}
	for _, v := range c.cfg.ViewsOver(table) {
		if modifiedCols != nil && !viewTouches(v, table, modifiedCols) {
			continue
		}
		// View maintenance scales with the view's complexity: each extra
		// joined table multiplies the per-row work (the change must be
		// joined against the other tables).
		factor := viewMaintPerRow * float64(len(v.Tables))
		if len(v.GroupBy) > 0 {
			factor *= 1.5
		}
		out = append(out, maintNode{gate: v.Key(), plan: &Plan{Op: "ViewMaintenance", Detail: v.Name,
			Cost: rows * factor, Rows: rows, Structure: v.Key()}})
	}
	slices.SortFunc(out, func(a, b maintNode) int { return strings.Compare(a.plan.Structure, b.plan.Structure) })
	return out
}

// viewTouches reports whether an UPDATE of the given columns affects the
// view's contents.
func viewTouches(v *catalog.MaterializedView, table string, modified map[string]bool) bool {
	for _, o := range v.OutputColumns {
		if o.Table == table && modified[o.Column] {
			return true
		}
	}
	for _, g := range v.GroupBy {
		if g.Table == table && modified[g.Column] {
			return true
		}
	}
	for _, a := range v.Aggs {
		if a.Col.Table == table && modified[a.Col.Column] {
			return true
		}
	}
	for _, j := range v.JoinPreds {
		if (j.Left.Table == table && modified[j.Left.Column]) ||
			(j.Right.Table == table && modified[j.Right.Column]) {
			return true
		}
	}
	return false
}
