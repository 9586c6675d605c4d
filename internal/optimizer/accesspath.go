package optimizer

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
)

// accessPath is one way to produce the (filtered) rows of a scope.
type accessPath struct {
	plan  *Plan
	rows  float64 // output rows after all local predicates
	pages float64 // output volume in pages (required columns only)
}

// accessPaths enumerates the physical alternatives for one scope under the
// configuration: heap scan, clustered index seek, non-clustered index seeks
// (with RID lookups when not covering), covering index scans — each with
// range-partition elimination folded in.
func (c *optContext) accessPaths(s *Scope) []accessPath {
	t := s.Table
	outRows := float64(t.Rows) * c.scopeSelectivity(s)
	if outRows < 1 {
		outRows = 1
	}
	outWidth := t.ColumnWidth(s.Required)
	outPages := pagesF(outRows, outWidth)

	var paths []accessPath

	clustered := c.cfg.ClusteredIndex(t.Name)
	tablePart := c.cfg.TablePartitioning(t.Name)
	if clustered != nil && clustered.Partitioning != nil {
		// The clustered index *is* the table; its partitioning governs the
		// base data.
		tablePart = clustered.Partitioning
	}

	// Base scan of the table (heap or clustered index in key order).
	{
		fr := c.partitionFraction(t, tablePart, s.Preds)
		scanPages := float64(t.Pages()) * fr
		scanRows := float64(t.Rows) * fr
		cost := startupCost + scanPages + scanRows*cpuPerRow
		cost /= c.parallelism(scanPages)
		op, detail, structure := "HeapScan", t.Name, ""
		var ordered []string
		if clustered != nil {
			op, detail, structure = "ClusteredScan", clustered.String(), clustered.Key()
			ordered = qualify(t.Name, clustered.KeyColumns)
			if tablePart != nil {
				// Each partition is ordered on the clustered key; a merge
				// of the per-partition streams preserves the order at a
				// small comparison cost (the interaction Example 2 of the
				// paper builds on: clustered on A + partitioned on X).
				cost += scanRows * math.Log2(float64(tablePart.Partitions())) * cpuPerCompare
			}
		}
		if tablePart != nil && fr < 1 {
			detail += fmt.Sprintf(" (partitions: %.0f%%)", fr*100)
			if structure == "" {
				structure = "tp:" + t.Name + "=" + tablePart.String()
			}
		}
		paths = append(paths, accessPath{
			plan: &Plan{Op: op, Detail: detail, Cost: cost, Rows: outRows, Pages: outPages,
				Structure: structure, Ordered: ordered},
			rows: outRows, pages: outPages,
		})
	}

	// Clustered index seek on a sargable prefix of the clustered key.
	if clustered != nil {
		if seekSel, matched := c.matchedPrefix(t, clustered.KeyColumns, s.Preds); matched > 0 {
			c.wantStat(t.Name, clustered.KeyColumns)
			fr := c.partitionFraction(t, tablePart, s.Preds)
			readPages := float64(t.Pages()) * math.Min(seekSel, fr)
			readRows := float64(t.Rows) * seekSel
			cost := startupCost + btreeDepth(float64(t.Pages()))*c.hw().RandomFactor + readPages + readRows*cpuPerRow
			if tablePart != nil {
				cost += readRows * math.Log2(float64(tablePart.Partitions())) * cpuPerCompare
			}
			cost /= c.parallelism(readPages)
			ordered := qualify(t.Name, clustered.KeyColumns)
			paths = append(paths, accessPath{
				plan: &Plan{Op: "ClusteredSeek", Detail: clustered.String(), Cost: cost,
					Rows: outRows, Pages: outPages, Structure: clustered.Key(), Ordered: ordered},
				rows: outRows, pages: outPages,
			})
		}
	}

	// Non-clustered index paths.
	for _, ix := range c.cfg.IndexesOn(t.Name) {
		if ix.Clustered {
			continue
		}
		covering := ix.Covers(s.Required)
		leafPages := float64(ix.Pages(t))
		ixPart := ix.Partitioning
		fr := c.partitionFraction(t, ixPart, s.Preds)
		c.wantStat(t.Name, ix.KeyColumns)

		if seekSel, matched := c.matchedPrefix(t, ix.KeyColumns, s.Preds); matched > 0 {
			seeks := 1.0
			if p := findPred(s.Preds, ix.KeyColumns[0]); p != nil && p.Kind == PredIn {
				seeks = float64(p.InSize)
			}
			readPages := leafPages * math.Min(seekSel, fr)
			readRows := float64(t.Rows) * seekSel
			cost := startupCost + seeks*btreeDepth(leafPages)*c.hw().RandomFactor + readPages + readRows*cpuPerRow
			if !covering {
				// One random base-table page per qualifying row.
				cost += readRows * c.hw().RandomFactor
			}
			if ixPart != nil {
				cost += readRows * math.Log2(float64(ixPart.Partitions())) * cpuPerCompare
			}
			cost /= c.parallelism(readPages + 1)
			var ordered []string
			if covering {
				ordered = qualify(t.Name, ix.KeyColumns)
			}
			detail := ix.String()
			if !covering {
				detail += " + RID lookup"
			}
			paths = append(paths, accessPath{
				plan: &Plan{Op: "IndexSeek", Detail: detail, Cost: cost, Rows: outRows,
					Pages: outPages, Structure: ix.Key(), Ordered: ordered},
				rows: outRows, pages: outPages,
			})
		}

		if covering {
			// Full scan of the (narrower) covering index.
			scanPages := leafPages * fr
			scanRows := float64(t.Rows) * fr
			cost := startupCost + scanPages + scanRows*cpuPerRow
			if ixPart != nil {
				cost += scanRows * math.Log2(float64(ixPart.Partitions())) * cpuPerCompare
			}
			cost /= c.parallelism(scanPages)
			ordered := qualify(t.Name, ix.KeyColumns)
			paths = append(paths, accessPath{
				plan: &Plan{Op: "IndexScan", Detail: ix.String(), Cost: cost, Rows: outRows,
					Pages: outPages, Structure: ix.Key(), Ordered: ordered},
				rows: outRows, pages: outPages,
			})
		}
	}

	return paths
}

// scopePaths returns the access paths of scope i of q, the query being
// optimized, enumerating them on first use: within one optimization a
// scope's access paths are fixed, and the plan choice, the join composition
// and the skeleton capture all read them.
func (c *optContext) scopePaths(q *QueryInfo, i int) []accessPath {
	if c.paths == nil {
		if len(q.Scopes) == 1 {
			c.paths = c.paths1[:]
		} else {
			c.paths = make([][]accessPath, len(q.Scopes))
		}
	}
	if c.paths[i] == nil {
		c.paths[i] = c.accessPaths(q.Scopes[i])
	}
	return c.paths[i]
}

// orderedPath returns the cheapest path whose output order covers wantOrder
// (nil if none). Exact cost ties break by (operator, structure key) — see
// pathLess — so the winner never depends on the configuration's structure
// enumeration order.
func orderedPath(paths []accessPath, wantOrder []string) *accessPath {
	var ordered *accessPath
	for i := range paths {
		if orderedPrefix(paths[i].plan.Ordered, wantOrder) && (ordered == nil || pathLess(paths[i].plan, ordered.plan)) {
			ordered = &paths[i]
		}
	}
	return ordered
}

// cheapestPath returns the minimum of a scope's access paths by pathLess.
// paths is never empty: the base scan always exists.
func cheapestPath(paths []accessPath) accessPath {
	bi := 0
	for i := 1; i < len(paths); i++ {
		if pathLess(paths[i].plan, paths[bi].plan) {
			bi = i
		}
	}
	return paths[bi]
}

// pathLess is the strict total order plan selections minimize over: cost
// first, then operator, then structure key. The tie-break makes equal-cost
// choices (symmetric candidate indexes are common) independent of the order
// structures happen to be listed in the configuration, which both keeps
// recommendations deterministic and lets the derivation layer replay the
// selection from a plan skeleton.
func pathLess(a, b *Plan) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Structure < b.Structure
}

// matchedPrefix computes the selectivity of the sargable prefix of the key
// columns: equality predicates extend the prefix; the first range / IN /
// LIKE-prefix predicate closes it. Returns the combined selectivity and the
// number of key columns matched (0 = cannot seek).
func (c *optContext) matchedPrefix(t *catalog.Table, keyCols []string, preds []Pred) (float64, int) {
	sel := 1.0
	matched := 0
	for _, kc := range keyCols {
		p := findPred(preds, kc)
		if p == nil || !p.Sargable() {
			break
		}
		sel *= c.predSelectivity(t, *p)
		matched++
		if p.Kind != PredEq {
			break // a range closes the prefix
		}
	}
	return sel, matched
}

// findPred returns the first sargable predicate on the column, preferring
// equality predicates over ranges.
func findPred(preds []Pred, col string) *Pred {
	var found *Pred
	for i := range preds {
		p := &preds[i]
		if p.Column != col || !p.Sargable() {
			continue
		}
		if p.Kind == PredEq {
			return p
		}
		if found == nil {
			found = p
		}
	}
	return found
}

// partitionFraction estimates the fraction of partitions a scan must touch
// given the scope's predicates on the partitioning column. With no
// partitioning or no predicate on the partitioning column it is 1.
func (c *optContext) partitionFraction(t *catalog.Table, part *catalog.PartitionScheme, preds []Pred) float64 {
	if part == nil || part.Partitions() <= 1 {
		return 1
	}
	p := findPred(preds, part.Column)
	if p == nil {
		return 1
	}
	n := float64(part.Partitions())
	perPart := 1 / n
	switch p.Kind {
	case PredEq:
		return perPart
	case PredIn:
		return math.Min(1, float64(p.InSize)*perPart)
	case PredRange:
		sel := c.predSelectivity(t, *p)
		// A range touching sel of the rows touches about sel of the
		// partitions, plus the boundary partition.
		return math.Min(1, sel+perPart)
	case PredLike:
		return math.Min(1, 0.05+perPart)
	default:
		return 1
	}
}

func qualify(table string, cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = strings.ToLower(table) + "." + strings.ToLower(c)
	}
	return out
}

func pagesF(rows float64, width int) float64 {
	per := float64(catalog.PageSize) / float64(width)
	if per < 1 {
		per = 1
	}
	p := rows / per
	if p < 1 {
		p = 1
	}
	return p
}
