package optimizer

import (
	"sort"
	"strings"

	"repro/internal/catalog"
)

// ScopeAlt is one access-path alternative of one join scope: the pre-join
// cost of producing the scope's filtered rows through a specific physical
// structure. Pre, like every skeleton quantity, is independent of which other
// additive structures the configuration holds.
type ScopeAlt struct {
	// Gate is the additive structure key that must be present for the
	// alternative to exist ("" = base access, available everywhere).
	Gate string
	// Op and Struct are the access plan's operator and structure key, the
	// pathLess tie-break fields (Struct can be non-empty for gateless base
	// paths: a clustered key or a table-partitioning key).
	Op     string
	Struct string
	// Pre is the access plan cost.
	Pre float64
}

// scopeAltLess mirrors pathLess over scope alternatives.
func scopeAltLess(a, b *ScopeAlt) bool {
	if a.Pre != b.Pre {
		return a.Pre < b.Pre
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Struct < b.Struct
}

// scopeAlts captures a scope's access paths as skeleton alternatives.
func scopeAlts(paths []accessPath) []ScopeAlt {
	alts := make([]ScopeAlt, len(paths))
	for i, p := range paths {
		alts[i] = ScopeAlt{Gate: accessGate(p.plan), Op: p.plan.Op, Struct: p.plan.Structure, Pre: p.plan.Cost}
	}
	return alts
}

// accessGate returns the additive structure an access plan requires: heap
// and clustered accesses are gated by base structures, which every
// sub-configuration in a derivation scope shares; only non-clustered index
// paths require their structure to be present.
func accessGate(p *Plan) string {
	if p.Op == "IndexSeek" || p.Op == "IndexScan" {
		return p.Structure
	}
	return ""
}

// SkeletonScope carries one scope of a join skeleton: its filtered output
// cardinality and width (shared by every access path) and the costed
// alternatives.
type SkeletonScope struct {
	Binding string
	Rows    float64
	Width   int
	Alts    []ScopeAlt
}

// SkeletonEdge is one join edge with its captured selectivity. Sel is
// direction-symmetric (1/max(distinct) does not depend on join order), so a
// single float reproduces the live computation for either build direction.
type SkeletonEdge struct {
	L, R       int
	LCol, RCol string
	Sel        float64
}

// SkeletonProbe is one index-nested-loop probe candidate into a scope on a
// join column: the per-probe cost through a specific index. The replay
// re-prices it for any outer cardinality as startupCost + outer·PerProbe —
// the same arithmetic indexLoopCost runs.
type SkeletonProbe struct {
	Scope    int
	Col      string
	Gate     string // "" = clustered (base) probe, always available
	Struct   string
	PerProbe float64
}

// JoinSkeleton is the plan skeleton of a multi-scope SELECT under one
// configuration: per-scope access alternatives, join-edge selectivities and
// probe candidates, matching materialized views costed end-to-end, and the
// captured finish chain. selectJoin re-runs the optimizer's join-order search
// and plan arithmetic — through the same composeJoin/finish code paths the
// live optimizer uses — restricted to any additive-structure subset,
// reproducing the cost bit-for-bit (paper §2.2's what-if interface served
// without an optimizer call; the per-scope decomposition is the INUM/CoPhy
// move, PAPERS.md).
type JoinSkeleton struct {
	Scopes []SkeletonScope
	Edges  []SkeletonEdge
	Probes []SkeletonProbe
	// Views lists matching materialized-view alternatives, reusing the
	// single-scope component shape (Pre competes with the join root's cost;
	// Final and Used are captured end-to-end).
	Views  []AltComponent
	Finish FinishSpec
	HW     Hardware
}

// joinAlternatives captures the join skeleton of a multi-scope query under
// the current configuration. The capture only repeats computations the direct
// optimization performs (access-path enumeration, edge selectivities, probe
// costing, view matching), so it introduces no new statistic requests beyond
// dedup and never perturbs the optimization result.
func (c *optContext) joinAlternatives(q *QueryInfo) *JoinSkeleton {
	js := &JoinSkeleton{Finish: c.finishSpec(q), HW: c.hw()}

	for _, s := range q.Scopes {
		sc := SkeletonScope{Binding: s.Binding, Width: s.Table.ColumnWidth(s.Required)}
		paths := c.accessPaths(s)
		if len(paths) > 0 {
			sc.Rows = paths[0].rows // all paths share the filtered cardinality
		}
		sc.Alts = scopeAlts(paths)
		js.Scopes = append(js.Scopes, sc)
	}

	for _, e := range q.Joins {
		js.Edges = append(js.Edges, SkeletonEdge{
			L: e.L, R: e.R, LCol: e.LCol, RCol: e.RCol,
			Sel: c.joinSelectivity(q.Scopes[e.L], e.LCol, q.Scopes[e.R], e.RCol),
		})
	}

	// Probe candidates: every (scope, join column) pair the composition can
	// ask for, i.e. each scope's columns across its join edges.
	for j, s := range q.Scopes {
		seen := map[string]bool{}
		for _, e := range q.Joins {
			var col string
			switch {
			case e.L == j:
				col = e.LCol
			case e.R == j:
				col = e.RCol
			default:
				continue
			}
			if seen[col] {
				continue
			}
			seen[col] = true
			matchRows := float64(s.Table.Rows) * c.density(s.Table, []string{col})
			if matchRows < 1 {
				matchRows = 1
			}
			for _, pc := range c.probeCands(s, col, matchRows) {
				js.Probes = append(js.Probes, SkeletonProbe{
					Scope: j, Col: col, Gate: pc.gate, Struct: pc.structure, PerProbe: pc.perProbe,
				})
			}
		}
	}

	// Matching views, costed end-to-end (mirrors bestViewPlan's inputs;
	// self-joins match no views).
	if len(c.cfg.Views) > 0 {
		seenT := map[string]bool{}
		var tables []string
		selfJoin := false
		for _, s := range q.Scopes {
			if seenT[s.Table.Name] {
				selfJoin = true
				break
			}
			seenT[s.Table.Name] = true
			tables = append(tables, strings.ToLower(s.Table.Name))
		}
		if !selfJoin {
			sort.Strings(tables)
			joinSet := map[string]bool{}
			for _, e := range q.Joins {
				jp := catalog.JoinPred{
					Left:  catalog.NewColRef(q.Scopes[e.L].Table.Name, e.LCol),
					Right: catalog.NewColRef(q.Scopes[e.R].Table.Name, e.RCol),
				}
				joinSet[jp.String()] = true
			}
			for _, v := range c.cfg.Views {
				if cand := c.tryView(q, v, tables, joinSet); cand != nil {
					fin := c.finishSelect(q, *cand)
					js.Views = append(js.Views, AltComponent{
						Structure: v.Key(),
						Op:        cand.plan.Op,
						View:      true,
						Pre:       cand.plan.Cost,
						Final:     fin.Cost,
						Used:      fin.structureKeys(),
					})
				}
			}
		}
	}
	return js
}

// replayJoinSrc drives the join composition from a captured skeleton
// restricted to an additive-structure subset.
type replayJoinSrc struct {
	js  *JoinSkeleton
	es  []JoinEdge
	has func(string) bool
}

func (s replayJoinSrc) scopeCount() int { return len(s.js.Scopes) }

func (s replayJoinSrc) access(i int) joined {
	sc := &s.js.Scopes[i]
	var win *ScopeAlt
	for k := range sc.Alts {
		a := &sc.Alts[k]
		if a.Gate != "" && !s.has(a.Gate) {
			continue
		}
		if win == nil || scopeAltLess(a, win) {
			win = a
		}
	}
	// win is never nil for a capture-built skeleton: the base scan is
	// gateless, so every subset keeps at least one alternative.
	return joined{
		plan:  &Plan{Op: win.Op, Cost: win.Pre, Structure: win.Struct},
		rows:  sc.Rows,
		width: sc.Width,
	}
}

func (s replayJoinSrc) binding(i int) string { return s.js.Scopes[i].Binding }

func (s replayJoinSrc) edges() []JoinEdge { return s.es }

func (s replayJoinSrc) edgeSel(k int) float64 { return s.js.Edges[k].Sel }

func (s replayJoinSrc) probe(i int, col string, outerRows float64) *Plan {
	var cands []probeCand
	for _, p := range s.js.Probes {
		if p.Scope != i || p.Col != col {
			continue
		}
		if p.Gate != "" && !s.has(p.Gate) {
			continue
		}
		cands = append(cands, probeCand{perProbe: p.PerProbe, structure: p.Struct})
	}
	win, total, ok := chooseProbe(cands, outerRows)
	if !ok {
		return nil
	}
	return &Plan{Op: "IndexProbe", Cost: total, Structure: win.structure}
}

func (s replayJoinSrc) hardware() Hardware { return s.js.HW }

// selectJoin replays the optimizer's plan choice for the subset: re-run the
// join-order search over the available scope alternatives and probes, apply
// the view rule against the join root's pre-finish cost, and run the captured
// finish chain. Every step goes through the same code the live optimizer runs
// (composeJoin, chooseProbe, FinishSpec.finish), so the replayed cost is the
// float sequence a real optimization of the subset would compute. ok is false
// only for an empty skeleton.
func (js *JoinSkeleton) selectJoin(has func(string) bool) (float64, []string, bool) {
	if len(js.Scopes) == 0 {
		return 0, nil, false
	}
	edges := make([]JoinEdge, len(js.Edges))
	for i, e := range js.Edges {
		edges[i] = JoinEdge{L: e.L, R: e.R, LCol: e.LCol, RCol: e.RCol}
	}
	root := composeJoin(replayJoinSrc{js: js, es: edges, has: has})

	// View rule: the cheapest available matching view competes against the
	// join root on pre-finish cost (the base plan keeps an exact tie).
	var vw *AltComponent
	for i := range js.Views {
		c := &js.Views[i]
		if !has(c.Structure) {
			continue
		}
		if vw == nil || altLess(c, vw) {
			vw = c
		}
	}
	if vw != nil && vw.Pre < root.plan.Cost {
		return vw.Final, append([]string(nil), vw.Used...), true
	}

	fin := js.Finish.finish(root.plan, root.rows, root.width)
	return fin.Cost, fin.structureKeys(), true
}
