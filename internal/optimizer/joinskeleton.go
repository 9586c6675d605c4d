package optimizer

import (
	"slices"
	"sync"
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
// the same arithmetic chooseProbe runs for the live optimizer.
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
// captured finish chain. Its Alternatives' replay form compiles it once
// (compiledJoin); replay re-runs the optimizer's join-order search and plan
// arithmetic — through the same compose/finish code paths the live
// optimizer uses — restricted to any additive-structure subset, reproducing
// the cost bit-for-bit (paper §2.2's what-if interface served without an
// optimizer call; the per-scope decomposition is the INUM/CoPhy move,
// PAPERS.md).
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
// the current configuration. It reads the optimization's scope table — the
// access paths, edge selectivities and probe inputs the join composition
// already computed — so it repeats no costing the direct optimization did,
// introduces no new statistic requests beyond dedup (a probe group the
// greedy order never asked for is computed here, as the composition would
// have), and never perturbs the optimization result.
func (c *optContext) joinAlternatives(q *QueryInfo) *JoinSkeleton {
	l := c.liveJoin(q)
	js := &JoinSkeleton{Edges: l.g.edges, Finish: c.finishSpec(q), HW: c.hw()}

	for i, s := range q.Scopes {
		paths := c.scopePaths(q, i)
		js.Scopes = append(js.Scopes, SkeletonScope{
			Binding: s.Binding,
			Rows:    paths[0].rows, // all paths share the filtered cardinality
			Width:   s.Table.ColumnWidth(s.Required),
			Alts:    scopeAlts(paths),
		})
	}

	// Probe candidates: every (scope, join column) pair the composition can
	// ask for, i.e. each scope's columns across its join edges.
	for g, grp := range l.g.groups {
		for _, pc := range l.probes(g) {
			js.Probes = append(js.Probes, SkeletonProbe{
				Scope: grp.scope, Col: grp.col, Gate: pc.gate, Struct: pc.structure, PerProbe: pc.perProbe,
			})
		}
	}

	// Matching views, costed end-to-end.
	js.Views = c.viewComponents(q)
	return js
}

// compiledJoin is a join skeleton prepared for replay: the join graph, each
// scope's alternatives in scopeAltLess order (so a scope's access is its
// first available alternative), the probe candidates grouped by (scope,
// join column), and the views — every one gated by an index into the
// skeleton's gate table (Alternatives.Gates), so a replay reads each
// structure's availability by position. It is immutable once built, so
// concurrent replays share it; it lives in memory only, beside the
// skeleton, and never changes the skeleton or its JSON.
type compiledJoin struct {
	js     *JoinSkeleton
	g      *joinGraph
	alts   [][]gatedAlt   // per scope
	probes [][]gatedProbe // per probe group, in skeleton order
	views  []gatedView    // in skeleton order
}

// A gate is an index into the gate table, or -1 for an alternative that
// every sub-configuration holds.
type gatedAlt struct {
	gate int32
	alt  *ScopeAlt
}

type gatedProbe struct {
	gate int32
	cand probeCand
}

type gatedView struct {
	gate int32
	view *AltComponent
}

// compile builds the join's replay form, entering its gate keys into the
// form's gate table. It returns nil for a skeleton no capture produces — no
// scopes, more than 64, or an edge naming a scope out of range — whose
// replay then reports no selectable alternative.
func (js *JoinSkeleton) compile(f *replayForm) *compiledJoin {
	n := len(js.Scopes)
	if n == 0 || n > 64 {
		return nil
	}
	for _, e := range js.Edges {
		if e.L < 0 || e.L >= n || e.R < 0 || e.R >= n {
			return nil
		}
	}
	cj := &compiledJoin{js: js, g: newJoinGraph(n, js.HW, js.Edges), alts: make([][]gatedAlt, n)}
	for i := range js.Scopes {
		sc := &js.Scopes[i]
		alts := make([]gatedAlt, len(sc.Alts))
		for k := range sc.Alts {
			alts[k] = gatedAlt{gate: f.gate(sc.Alts[k].Gate), alt: &sc.Alts[k]}
		}
		slices.SortStableFunc(alts, func(a, b gatedAlt) int {
			switch {
			case scopeAltLess(a.alt, b.alt):
				return -1
			case scopeAltLess(b.alt, a.alt):
				return 1
			}
			return 0
		})
		cj.alts[i] = alts
	}
	cj.probes = make([][]gatedProbe, len(cj.g.groups))
	for _, p := range js.Probes {
		for g, grp := range cj.g.groups {
			if grp.scope == p.Scope && grp.col == p.Col {
				cj.probes[g] = append(cj.probes[g], gatedProbe{gate: f.gate(p.Gate),
					cand: probeCand{perProbe: p.PerProbe, structure: p.Struct}})
				break
			}
		}
	}
	for i := range js.Views {
		// A view is always gated by its own structure; one without a key
		// is never available.
		if v := &js.Views[i]; v.Structure != "" {
			cj.views = append(cj.views, gatedView{gate: f.gate(v.Structure), view: v})
		}
	}
	return cj
}

// replay replays the optimizer's plan choice for the sub-configuration in
// which avail[i] reports whether the gate table's structure i is present:
// re-run the join-order search over the available scope alternatives and
// probes, apply the view rule against the join root's pre-finish cost, and
// run the captured finish chain, cost-only. Every step goes through the
// code the live optimizer runs (composer.compose, chooseProbe,
// FinishSpec.finish), so the replayed cost is the float sequence a real
// optimization of the subset would compute, and the used structures are
// those of the plan it would choose, stored in *used when used is non-nil.
// ok is false when some scope has no available alternative, which a
// capture-built skeleton cannot produce (the base scan is gateless). The
// working memory comes from replayScratchPool, so a cost-only replay
// allocates nothing once the pool is warm.
func (cj *compiledJoin) replay(avail []bool, used *[]string) (float64, bool) {
	s := replayScratchPool.Get().(*replayScratch)
	defer replayScratchPool.Put(s)
	r := &s.src
	r.cj = cj
	r.avail = append(r.avail[:0], avail...)
	r.win = resize(r.win, len(cj.alts))
	r.buf = slices.Grow(r.buf[:0], len(cj.js.Probes))
	for i, alts := range cj.alts {
		for _, a := range alts {
			if r.ok(a.gate) {
				r.win[i] = a.alt
				break
			}
		}
		if r.win[i] == nil {
			return 0, false
		}
	}
	s.comp.reset(cj.g, r)
	chain, probes := s.comp.compose()
	root := chain[len(chain)-1]

	// View rule: the cheapest available matching view competes against the
	// join root on pre-finish cost (the base plan keeps an exact tie).
	var vw *AltComponent
	for _, v := range cj.views {
		if r.ok(v.gate) && (vw == nil || altLess(v.view, vw)) {
			vw = v.view
		}
	}
	if vw != nil && vw.Pre < root.cost {
		if used != nil {
			*used = append([]string(nil), vw.Used...)
		}
		return vw.Final, true
	}

	if used != nil {
		// The used structures of the chain's plan: each access that stays
		// in the tree (the first scope's, and each hash join's inner) and
		// each winning probe. The finish chain adds none. The keys are
		// copied out of the scratch, which goes back to the pool.
		keys := make([]string, 0, len(chain))
		for _, st := range chain {
			key := r.win[st.last].Struct
			if st.group >= 0 {
				key = probes[st.group][st.cand].structure
			}
			if key != "" {
				keys = append(keys, key)
			}
		}
		slices.Sort(keys)
		*used = slices.Compact(keys)
	}
	cost, _ := cj.js.Finish.finish(nil, root.cost, nil, root.rows, root.width)
	return cost, true
}

// replayScratch is one join replay's working memory: the source's
// availability, winners and probe lists, and the composer's inputs, DP
// table and chain.
type replayScratch struct {
	src  replaySrc
	comp composer
}

// replayScratchPool recycles join replay scratch across replays and
// skeletons; each replay resizes and clears what it reads.
var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// replaySrc drives the join composition from a compiled skeleton restricted
// to one sub-configuration.
type replaySrc struct {
	cj    *compiledJoin
	avail []bool      // per gate
	win   []*ScopeAlt // per scope: its first available alternative
	buf   []probeCand // backs the available probe lists
}

func (r *replaySrc) ok(gate int32) bool { return gate < 0 || r.avail[gate] }

func (r *replaySrc) access(i int) joinStep {
	sc := &r.cj.js.Scopes[i]
	return joinStep{cost: r.win[i].Pre, rows: sc.Rows, width: sc.Width}
}

func (r *replaySrc) probes(g int) []probeCand {
	start := len(r.buf)
	for _, p := range r.cj.probes[g] {
		if r.ok(p.gate) {
			r.buf = append(r.buf, p.cand)
		}
	}
	return r.buf[start:len(r.buf):len(r.buf)]
}
