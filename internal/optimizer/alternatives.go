package optimizer

import (
	"encoding/json"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
)

// AltComponent is one end-to-end costed plan alternative of a single-scope
// SELECT: the complete statement plan built over one access path or one
// materialized view. Every field is independent of which other additive
// structures the configuration holds, which is what makes subset costing a
// pure selection over the components (the INUM observation).
type AltComponent struct {
	// Structure is the additive structure key that must be present for this
	// alternative to exist ("" = base access through the heap or a clustered
	// index, available under every sub-configuration).
	Structure string
	// Op is the access operator at the root of the alternative's access plan
	// (HeapScan, ClusteredSeek, IndexSeek, ViewScan, ...), the second field
	// of the pathLess tie-break order.
	Op string
	// View marks a materialized-view alternative, which competes against the
	// chosen base access on pre-finish cost (the optimizer's view rule).
	View bool
	// Pre is the access/view plan cost before grouping, ordering and TOP —
	// the metric the optimizer's access-path and view selections compare.
	Pre float64
	// Final is the end-to-end statement cost when this alternative is chosen.
	Final float64
	// Ordered reports whether the alternative's output order satisfies the
	// query's interesting order (the sort-avoidance rule of basePlan).
	Ordered bool
	// Used holds the used-structure keys the finished plan reports when this
	// alternative wins.
	Used []string
}

// altLess mirrors pathLess over skeleton components: minimize pre-finish
// cost, break exact ties by (operator, structure key). For index and view
// components Structure equals the plan's structure key; base components are
// uniquely identified by Op alone, so the two orders coincide on every pair
// pathLess can be asked to compare.
func altLess(a, b *AltComponent) bool {
	if a.Pre != b.Pre {
		return a.Pre < b.Pre
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	return a.Structure < b.Structure
}

// Alternatives is the plan skeleton of one statement under one
// configuration, such that the statement's cost and used structures under any
// sub-configuration — same base structures, any subset of the additive ones —
// follow from Replay without another optimizer call. Single-scope SELECTs
// carry flat end-to-end components; multi-scope SELECTs carry a JoinSkeleton
// whose per-scope alternatives compose through the join cost function;
// INSERT/UPDATE/DELETE carry a Maintenance sum.
type Alternatives struct {
	// Components lists the single-scope alternatives in the optimizer's own
	// enumeration order (base accesses, then non-clustered indexes, then
	// views). Empty when Join or Maint is set.
	Components []AltComponent
	// HasOrder reports whether the query has an interesting order, enabling
	// the ordered-alternative rule during Replay.
	HasOrder bool
	// Join is the multi-scope skeleton (nil for single-scope SELECTs).
	Join *JoinSkeleton
	// Maint is the DML maintenance skeleton (nil for SELECTs, and then
	// omitted from JSON, so persisted SELECT skeletons keep their bytes).
	Maint *Maintenance `json:",omitempty"`

	// canon memoizes CanonicalJSON, rendered once by its first caller.
	canonOnce sync.Once
	canon     []byte
	canonErr  error

	// rf is the replay form, compiled once by its first caller.
	rfOnce sync.Once
	rf     *replayForm
}

// CanonicalJSON returns the skeleton's JSON — exactly the bytes json.Marshal
// produces for it, or its error — rendered once, on first use, and shared by
// every later caller. A skeleton is immutable once published (a plan cache
// hands one to many sessions, a revision keeps its pool's), so every sealed
// pool holding it writes these bytes instead of reflecting over it again.
// It is deliberately not a MarshalJSON method: encoding/json re-validates a
// Marshaler's output byte by byte, which costs about what it saves. The
// returned slice must not be modified.
func (a *Alternatives) CanonicalJSON() ([]byte, error) {
	a.canonOnce.Do(func() { a.canon, a.canonErr = json.Marshal(a) })
	return a.canon, a.canonErr
}

// OptimizeAlternatives is Optimize plus the plan skeleton: flat components for
// a single-scope SELECT, a composed JoinSkeleton for a join, a Maintenance sum
// for INSERT/UPDATE/DELETE. The Result is identical to Optimize's, including
// the RequiredStats set (the skeleton only repeats computations the direct
// optimization performs, and stat requests dedup by key).
func (o *Optimizer) OptimizeAlternatives(stmt sqlparser.Statement, cfg *catalog.Configuration) (*Result, *Alternatives, error) {
	return o.optimize(stmt, cfg, true)
}

// selectAlternatives builds the plan skeleton of a single-scope query: each
// access path and each matching view, finished end-to-end exactly as
// optimizeSelect would finish it if that alternative were chosen.
func (c *optContext) selectAlternatives(q *QueryInfo) *Alternatives {
	s := q.Scopes[0]
	width := s.Table.ColumnWidth(s.Required)
	want := c.interestingOrder(q)
	a := &Alternatives{HasOrder: len(want) > 0}
	for _, p := range c.scopePaths(q, 0) {
		fin := c.finishSelect(q, joined{plan: p.plan, rows: p.rows, width: width})
		a.Components = append(a.Components, AltComponent{
			Structure: accessGate(p.plan),
			Op:        p.plan.Op,
			Pre:       p.plan.Cost,
			Final:     fin.Cost,
			Ordered:   len(want) > 0 && orderedPrefix(p.plan.Ordered, want),
			Used:      fin.structureKeys(),
		})
	}
	a.Components = append(a.Components, c.viewComponents(q)...)
	return a
}

// Gates lists the distinct additive structure keys the skeleton's
// alternatives are gated by, in first-seen order: a single-scope skeleton's
// component structures, a DML skeleton's access-path and maintenance-term
// gates, a join skeleton's scope-alternative, probe and view gates. Replay
// reads the availability of each by its position here. The table is
// compiled once, on first use, with the rest of the replay form (safe for
// concurrent use; the skeleton must not change afterwards), and must not be
// modified.
func (a *Alternatives) Gates() []string { return a.form().gates }

// replayForm is a skeleton prepared for replay: its gate table and each
// alternative's gate as an index into it (-1: ungated, available under
// every sub-configuration). It lives in memory only, beside the skeleton,
// and never changes the skeleton or its JSON.
type replayForm struct {
	gates  []string
	comp   []int32       // per Components entry
	access []int32       // per Maint.Access entry
	terms  []int32       // per Maint.Terms entry
	join   *compiledJoin // nil unless Join is set and well formed
}

// form returns the skeleton's replay form, compiling it on the first call.
func (a *Alternatives) form() *replayForm {
	a.rfOnce.Do(func() { a.rf = a.compile() })
	return a.rf
}

// compile builds the replay form of the skeleton's one shape (the shape
// Replay dispatches on).
func (a *Alternatives) compile() *replayForm {
	f := &replayForm{}
	switch {
	case a.Join != nil:
		f.join = a.Join.compile(f)
	case a.Maint != nil:
		f.gates = make([]string, 0, len(a.Maint.Access)+len(a.Maint.Terms))
		f.access = make([]int32, len(a.Maint.Access))
		for k := range a.Maint.Access {
			f.access[k] = f.gate(a.Maint.Access[k].Gate)
		}
		f.terms = make([]int32, len(a.Maint.Terms))
		for k := range a.Maint.Terms {
			f.terms[k] = f.gate(a.Maint.Terms[k].Gate)
		}
	default:
		f.gates = make([]string, 0, len(a.Components))
		f.comp = make([]int32, len(a.Components))
		for k := range a.Components {
			f.comp[k] = f.gate(a.Components[k].Structure)
		}
	}
	return f
}

// gate returns key's index in the gate table, entering it on first sight;
// the empty key is ungated (-1). A skeleton gates on a few dozen structures
// at most, so a scan beats a map.
func (f *replayForm) gate(key string) int32 {
	if key == "" {
		return -1
	}
	if i := slices.Index(f.gates, key); i >= 0 {
		return int32(i)
	}
	f.gates = append(f.gates, key)
	return int32(len(f.gates) - 1)
}

// Replay replays the optimizer's plan choice over the alternatives available
// under a sub-configuration — avail[i] reports whether the structure
// Gates()[i] is present — and returns the cost of the chosen plan, storing
// its used-structure keys in *used when used is non-nil. Because every
// alternative's cost is config-independent (the same arithmetic produces
// bit-identical floats under the sub-configuration) and every selection
// minimizes the pathLess total order, the replayed choice is exactly the
// choice a real optimization of that configuration would make. Each shape
// has this one replay: the flat components' selection, the join
// composition, the maintenance sum. ok is false when avail does not hold
// one entry per gate, and when no alternative is available, which a
// skeleton the optimizer built cannot produce (a base access always
// exists). A cost-only replay (used nil) allocates nothing.
func (a *Alternatives) Replay(avail []bool, used *[]string) (float64, bool) {
	f := a.form()
	if len(avail) != len(f.gates) {
		return 0, false
	}
	switch {
	case a.Join != nil:
		if f.join == nil {
			return 0, false
		}
		return f.join.replay(avail, used)
	case a.Maint != nil:
		return a.Maint.replay(f, avail, used)
	}
	return a.replayFlat(f.comp, avail, used)
}

// Cost is the cost-only Replay for the sub-configuration whose additive
// structures has reports present, asking has once per gate.
func (a *Alternatives) Cost(has func(string) bool) (float64, bool) {
	var buf [64]bool
	return a.Replay(availOf(buf[:0], a.Gates(), has), nil)
}

// Select is Cost plus the used-structure keys of the chosen plan.
func (a *Alternatives) Select(has func(string) bool) (float64, []string, bool) {
	var buf [64]bool
	var used []string
	cost, ok := a.Replay(availOf(buf[:0], a.Gates(), has), &used)
	return cost, used, ok
}

// availOf appends has(key) for each gate key to dst.
func availOf(dst []bool, gates []string, has func(string) bool) []bool {
	for _, key := range gates {
		dst = append(dst, has(key))
	}
	return dst
}

// replayFlat is Replay over single-scope components, gate holding each
// one's gate.
func (a *Alternatives) replayFlat(gate []int32, avail []bool, used *[]string) (float64, bool) {
	on := func(k int) bool { return gate[k] < 0 || avail[gate[k]] }

	// Access-path selection (cheapestPath): minimum by pathLess.
	var j *AltComponent
	for k := range a.Components {
		c := &a.Components[k]
		if c.View || !on(k) {
			continue
		}
		if j == nil || altLess(c, j) {
			j = c
		}
	}
	if j == nil {
		return 0, false
	}
	chosen := j

	// Ordered alternative: the cheapest order-preserving path wins when its
	// end-to-end cost beats the unordered choice (basePlan's sort avoidance;
	// the incumbent keeps an exact tie).
	if a.HasOrder {
		var alt *AltComponent
		for k := range a.Components {
			c := &a.Components[k]
			if c.View || !on(k) || !c.Ordered {
				continue
			}
			if alt == nil || altLess(c, alt) {
				alt = c
			}
		}
		if alt != nil && alt.Final < j.Final {
			chosen = alt
		}
	}

	// View selection: the cheapest matching view competes against the chosen
	// base access on pre-finish cost (optimizeSelect's view rule; the base
	// access keeps an exact tie).
	var vw *AltComponent
	for k := range a.Components {
		c := &a.Components[k]
		if !c.View || !on(k) {
			continue
		}
		if vw == nil || altLess(c, vw) {
			vw = c
		}
	}
	if vw != nil && vw.Pre < chosen.Pre {
		chosen = vw
	}
	if used != nil {
		*used = append([]string(nil), chosen.Used...)
	}
	return chosen.Final, true
}
