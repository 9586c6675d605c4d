package optimizer

import (
	"math"
	"math/bits"
)

// joined is a finished plan input: a plan with its output rows and width.
type joined struct {
	plan  *Plan
	rows  float64
	width int // summed required-column width, for page estimates
}

// joinStep is one state of the join-order search: the cheapest left-deep
// join found for a set of scopes. It carries only what the composition
// prices with — cost, output rows and width — plus a back-pointer saying how
// it was built: the scope joined last and, when an index-nested-loop join
// won, the winning probe. A singleton state is a scope's cheapest access. No
// state builds a *Plan: the live optimizer builds the one winning tree from
// the back-pointers (liveJoin.plan), and replay reads the used structures
// off them (CompiledJoin.replay).
type joinStep struct {
	cost  float64
	rows  float64
	width int
	last  int32 // the scope joined last (the only scope of a singleton)
	group int32 // the probe group of an index-nested-loop join, -1 otherwise
	cand  int32 // the winning candidate within that probe group
	ok    bool  // the state exists (some DP subsets are unreachable)
}

func (s joinStep) pages() float64 { return pagesF(s.rows, s.width) }

// joinGraph is the configuration-independent shape of a join that live
// optimization and replay share: the edges with their selectivities, each
// scope's incident edges and neighbour mask, and the probe groups — one per
// (scope, join column), ordered by scope and, within a scope, by first
// appearance along the edge list (the order a skeleton lists its probes in).
// The live optimizer builds it once per optimization, a compiled skeleton
// once per fact.
type joinGraph struct {
	n      int
	hw     Hardware
	edges  []SkeletonEdge
	nbr    []uint64     // per scope: the scopes an edge joins it to
	inc    [][]incident // per scope: its edges, in edge order
	groups []probeGroup
}

// incident is one edge seen from one of its scopes.
type incident struct {
	edge  int32 // index into joinGraph.edges
	other int32 // the scope at the other end
	group int32 // the probe group of this scope's join column
}

// probeGroup names the index-nested-loop probes into one scope on one join
// column.
type probeGroup struct {
	scope int
	col   string
}

// newJoinGraph derives the shape of an n-scope join from its edges. Every
// edge must name scopes below n, and n must be at most 64.
func newJoinGraph(n int, hw Hardware, edges []SkeletonEdge) *joinGraph {
	g := &joinGraph{n: n, hw: hw, edges: edges, nbr: make([]uint64, n), inc: make([][]incident, n)}
	for j := 0; j < n; j++ {
		first := len(g.groups)
		for k, e := range edges {
			var col string
			var other int
			switch {
			case e.L == j:
				col, other = e.LCol, e.R
			case e.R == j:
				col, other = e.RCol, e.L
			default:
				continue
			}
			gi := first
			for gi < len(g.groups) && g.groups[gi].col != col {
				gi++
			}
			if gi == len(g.groups) {
				g.groups = append(g.groups, probeGroup{scope: j, col: col})
			}
			g.inc[j] = append(g.inc[j], incident{edge: int32(k), other: int32(other), group: int32(gi)})
			g.nbr[j] |= 1 << other
		}
	}
	return g
}

// joinSrc supplies the configuration-dependent inputs of one join
// composition: each scope's cheapest available access (pathLess minimum:
// cost, output rows and width) and each probe group's available
// index-nested-loop candidates. The live optimizer computes them from the
// configuration and catalog (liveJoin); a compiled skeleton selects them
// from captured alternatives restricted to a structure subset
// (replaySrc). composeJoin asks for each scope's access exactly once and
// for each probe group at most once. Every quantity a joinSrc returns is
// independent of which *additive* structures the configuration holds beyond
// availability — the property that lets the composition run the
// bit-identical arithmetic on both sides.
type joinSrc interface {
	access(i int) joinStep
	probes(g int) []probeCand
}

const dpMaxTables = 10

// composer is one run of the join-order search: the graph, the source, and
// the inputs read from it so far.
type composer struct {
	g      *joinGraph
	src    joinSrc
	access []joinStep
	probes [][]probeCand
	asked  []bool
}

// composeJoin runs the join-order search over a source: DP over connected
// subsets up to dpMaxTables scopes, greedy beyond that or when the join graph
// is disconnected. It returns the winning chain — chain[0] is the first
// scope's access, chain[k] joins one more scope onto chain[k-1], and the last
// entry covers every scope — and the probe lists it priced with, by group.
// Both the search order and every tie-break are deterministic, so two
// sources supplying bit-identical inputs produce bit-identical chains — the
// contract the derivation layer's skeleton replay rests on.
func composeJoin(g *joinGraph, src joinSrc) ([]joinStep, [][]probeCand) {
	m := newComposer(g, src)
	if g.n <= dpMaxTables {
		if chain, ok := m.composeDP(); ok {
			return chain, m.probes
		}
	}
	return m.composeGreedy(), m.probes
}

// newComposer starts a composition, reading each scope's access.
func newComposer(g *joinGraph, src joinSrc) *composer {
	m := &composer{g: g, src: src, access: make([]joinStep, g.n),
		probes: make([][]probeCand, len(g.groups)), asked: make([]bool, len(g.groups))}
	for i := range m.access {
		a := src.access(i)
		a.last, a.group, a.ok = int32(i), -1, true
		m.access[i] = a
	}
	return m
}

// probesOf returns probe group g's candidates, asking the source once.
func (m *composer) probesOf(g int32) []probeCand {
	if !m.asked[g] {
		m.probes[g], m.asked[g] = m.src.probes(int(g)), true
	}
	return m.probes[g]
}

// composeDP is the dynamic program over connected subsets, its states
// indexed by subset; ok is false for a disconnected join graph (no complete
// plan reachable through connected extensions). Every proper subset of a
// subset is numerically smaller, so one ascending pass sees each state's
// inputs complete.
func (m *composer) composeDP() ([]joinStep, bool) {
	n := m.g.n
	full := uint64(1)<<n - 1
	best := make([]joinStep, full+1)
	for i, a := range m.access {
		best[1<<i] = a
	}
	for sub := uint64(3); sub <= full; sub++ {
		if sub&(sub-1) == 0 {
			continue // a singleton: the scope's access
		}
		cur := &best[sub]
		for rem := sub; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem)
			rest := sub &^ (1 << j)
			left := &best[rest]
			// Require connectivity unless the query has no joins at all
			// (cross join fallback).
			if !left.ok || (m.g.nbr[j]&rest == 0 && len(m.g.edges) > 0) {
				continue
			}
			if cand := m.composeWith(*left, rest, j); !cur.ok || cand.cost < cur.cost {
				*cur = cand
			}
		}
	}
	if !best[full].ok {
		return nil, false
	}
	chain := make([]joinStep, n)
	for sub, k := full, n-1; k >= 0; k-- {
		chain[k] = best[sub]
		sub &^= 1 << chain[k].last
	}
	return chain, true
}

// composeWith extends the left intermediate with scope j, choosing the
// cheapest of hash join and index nested loops.
func (m *composer) composeWith(left joinStep, leftSet uint64, j int) joinStep {
	right := m.access[j]

	// Combined cardinality: apply every edge between leftSet and j (none
	// for a cartesian product).
	sel := 1.0
	for _, in := range m.g.inc[j] {
		if leftSet&(1<<in.other) != 0 {
			sel *= m.g.edges[in.edge].Sel
		}
	}
	outRows := left.rows * right.rows * sel
	if outRows < 1 {
		outRows = 1
	}
	out := joinStep{rows: outRows, width: left.width + right.width, last: int32(j), group: -1, ok: true}

	// Hash join (build on the smaller input).
	buildRows, probeRows := right.rows, left.rows
	buildPages := right.pages()
	if left.rows < right.rows {
		buildRows, probeRows = left.rows, right.rows
		buildPages = left.pages()
	}
	out.cost = left.cost + right.cost + hashCostHW(m.g.hw, buildRows, buildPages, probeRows)

	// Index nested loops: for each join column on the right, the cheapest
	// available index (clustered or not) whose leading key is that column.
	for _, in := range m.g.inc[j] {
		if leftSet&(1<<in.other) == 0 {
			continue
		}
		if c, total, ok := chooseProbe(m.probesOf(in.group), left.rows); ok {
			if cost := left.cost + total; cost < out.cost {
				out.cost, out.group, out.cand = cost, in.group, int32(c)
			}
		}
	}
	return out
}

// composeGreedy builds a left-deep join greedily: start from the cheapest
// access path, repeatedly add the connected scope with the lowest resulting
// cost (scanning scopes in index order, so ties and disconnected fallbacks
// resolve deterministically). It always produces a complete chain.
func (m *composer) composeGreedy() []joinStep {
	n := m.g.n
	// Seed with the scope whose access is cheapest (first wins on exact
	// ties, in scope order).
	seed, seedCost := 0, math.Inf(1)
	for i, a := range m.access {
		if a.cost < seedCost {
			seed, seedCost = i, a.cost
		}
	}
	chain := append(make([]joinStep, 0, n), m.access[seed])
	cur := uint64(1) << seed
	for len(chain) < n {
		// Prefer connected extensions while any exist.
		connectable := false
		for j := 0; j < n && !connectable; j++ {
			connectable = cur&(1<<j) == 0 && m.g.nbr[j]&cur != 0
		}
		var next joinStep
		for j := 0; j < n; j++ {
			if cur&(1<<j) != 0 || (connectable && m.g.nbr[j]&cur == 0) {
				continue
			}
			if cand := m.composeWith(chain[len(chain)-1], cur, j); !next.ok || cand.cost < next.cost {
				next = cand
			}
		}
		chain = append(chain, next)
		cur |= 1 << next.last
	}
	return chain
}

// liveJoin drives the join composition from the live optimizer state — the
// configuration, catalog and statistics behind the optContext — and is the
// per-optimization scope table: each scope's access paths (optContext.
// scopePaths) and each probe group's inputs are computed once and read
// again by the plan build and the skeleton capture.
type liveJoin struct {
	c     *optContext
	q     *QueryInfo
	g     *joinGraph
	best  []accessPath // per scope: its cheapest access path
	probe []liveProbe  // per probe group, filled when first asked
}

// liveProbe is one probe group's inputs under the configuration: the rows
// one probe matches, the scope's residual local selectivity, and the
// candidates.
type liveProbe struct {
	done      bool
	matchRows float64
	localSel  float64
	cands     []probeCand
}

// liveJoin returns the query's scope table, building the join graph (edge
// selectivities included) on first use.
func (c *optContext) liveJoin(q *QueryInfo) *liveJoin {
	if c.join != nil {
		return c.join
	}
	var edges []SkeletonEdge
	for _, e := range q.Joins {
		edges = append(edges, SkeletonEdge{
			L: e.L, R: e.R, LCol: e.LCol, RCol: e.RCol,
			Sel: c.joinSelectivity(q.Scopes[e.L], e.LCol, q.Scopes[e.R], e.RCol),
		})
	}
	g := newJoinGraph(len(q.Scopes), c.hw(), edges)
	c.join = &liveJoin{c: c, q: q, g: g, best: make([]accessPath, g.n), probe: make([]liveProbe, len(g.groups))}
	return c.join
}

func (l *liveJoin) access(i int) joinStep {
	s := l.q.Scopes[i]
	l.best[i] = cheapestPath(l.c.scopePaths(l.q, i))
	return joinStep{cost: l.best[i].plan.Cost, rows: l.best[i].rows, width: s.Table.ColumnWidth(s.Required)}
}

func (l *liveJoin) probes(g int) []probeCand {
	p := &l.probe[g]
	if !p.done {
		grp := l.g.groups[g]
		s := l.q.Scopes[grp.scope]
		// Rows matching one probe value.
		p.matchRows = float64(s.Table.Rows) * l.c.density(s.Table, []string{grp.col})
		if p.matchRows < 1 {
			p.matchRows = 1
		}
		// Residual local predicates still apply per probe.
		p.localSel = l.c.scopeSelectivity(s)
		p.cands = l.c.probeCands(s, grp.col, p.matchRows)
		p.done = true
	}
	return p.cands
}

// plan builds the plan tree of a winning chain: the first scope's access
// plan, then one HashJoin or IndexLoopJoin node per joined scope, priced
// exactly as the composition priced them.
func (l *liveJoin) plan(chain []joinStep) *Plan {
	p := l.best[chain[0].last].plan
	for k := 1; k < len(chain); k++ {
		st, outer := chain[k], chain[k-1].rows
		binding := l.q.Scopes[st.last].Binding
		if st.group < 0 {
			p = &Plan{Op: "HashJoin", Detail: binding, Cost: st.cost, Rows: st.rows,
				Pages: st.pages(), Children: []*Plan{p, l.best[st.last].plan}}
			continue
		}
		pr := &l.probe[st.group]
		win := pr.cands[st.cand]
		inl := &Plan{Op: "IndexProbe", Detail: win.detail, Cost: startupCost + outer*win.perProbe,
			Rows: outer * pr.matchRows * pr.localSel, Structure: win.structure}
		p = &Plan{Op: "IndexLoopJoin", Detail: binding + " via " + win.detail, Cost: st.cost, Rows: st.rows,
			Pages: st.pages(), Children: []*Plan{p, inl}, Structure: win.structure}
	}
	return p
}

// joinScopes computes the best left-deep join over all scopes of the query.
// A single scope is its cheapest access path.
func (c *optContext) joinScopes(q *QueryInfo) joined {
	if len(q.Scopes) == 1 {
		s := q.Scopes[0]
		best := cheapestPath(c.scopePaths(q, 0))
		return joined{plan: best.plan, rows: best.rows, width: s.Table.ColumnWidth(s.Required)}
	}
	l := c.liveJoin(q)
	chain, _ := composeJoin(l.g, l)
	root := chain[len(chain)-1]
	return joined{plan: l.plan(chain), rows: root.rows, width: root.width}
}

// probeCand is one index-nested-loop probe candidate into a scope: the cost
// of one probe through a specific index (clustered or non-clustered). The
// per-probe cost is independent of the outer cardinality and of which other
// additive structures the configuration holds, which is what lets a plan
// skeleton carry candidates and re-price them for any outer row count.
type probeCand struct {
	perProbe  float64
	detail    string
	structure string
	gate      string // additive structure key required, "" = always available
}

// chooseProbe picks the cheapest probe candidate for the given outer
// cardinality, breaking exact cost ties by structure key (every candidate is
// an IndexProbe, so the structure key alone completes the pathLess order).
// Returns the winner's index and its total cost; ok is false with no
// candidates.
func chooseProbe(cands []probeCand, outerRows float64) (int, float64, bool) {
	win, winTotal := -1, 0.0
	for i := range cands {
		total := startupCost + outerRows*cands[i].perProbe
		if win < 0 || total < winTotal || (total == winTotal && cands[i].structure < cands[win].structure) {
			win, winTotal = i, total
		}
	}
	return win, winTotal, win >= 0
}

// probeCands enumerates the INL probe candidates of a scope on the join
// column under the configuration: the clustered index when its leading key is
// the join column, and every non-clustered index likewise (with a per-row
// RID-lookup surcharge when not covering). matchRows is the per-probe match
// cardinality the caller computed.
func (c *optContext) probeCands(s *Scope, joinCol string, matchRows float64) []probeCand {
	t := s.Table
	var out []probeCand
	if cl := c.cfg.ClusteredIndex(t.Name); cl != nil && cl.KeyColumns[0] == joinCol {
		c.wantStat(t.Name, cl.KeyColumns)
		perProbe := btreeDepth(float64(t.Pages()))*c.hw().RandomFactor + matchRows*cpuPerRow
		// The clustered index is a base structure: present in every
		// sub-configuration of a derivation scope, so no gate.
		out = append(out, probeCand{perProbe: perProbe, detail: cl.String(), structure: cl.Key()})
	}
	for _, ix := range c.cfg.IndexesOn(t.Name) {
		if ix.Clustered || ix.KeyColumns[0] != joinCol {
			continue
		}
		c.wantStat(t.Name, ix.KeyColumns)
		perProbe := btreeDepth(float64(ix.Pages(t)))*c.hw().RandomFactor + matchRows*cpuPerRow
		if !ix.Covers(s.Required) {
			perProbe += matchRows * c.hw().RandomFactor
		}
		out = append(out, probeCand{perProbe: perProbe, detail: ix.String(), structure: ix.Key(), gate: ix.Key()})
	}
	return out
}
