// Package optimizer implements the cost-based query optimizer the advisor is
// kept in-sync with (paper §2.2): given a statement and a (possibly
// hypothetical) physical configuration, it produces the optimizer-estimated
// cost and plan of the statement as if the configuration were materialized.
//
// The optimizer relies fundamentally on metadata and statistics — never on
// data — which is the property that makes test-server tuning possible
// (paper §5.3). Hardware parameters (number of CPUs, memory) are explicit
// inputs so a test server can simulate the production server's cost model.
package optimizer

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/stats"
)

// Hardware models the server parameters the cost model takes into account
// (paper §2.2: "the impact of multiple processors, amount of memory on the
// server, and so on").
type Hardware struct {
	CPUs         int
	MemoryPages  int64   // pages of memory available to hash/sort operators
	RandomFactor float64 // cost of one random page read, in sequential-page units
}

// DefaultHardware returns a mid-size server: 8 CPUs, 1 GB of buffer memory.
func DefaultHardware() Hardware {
	return Hardware{CPUs: 8, MemoryPages: 1 << 17, RandomFactor: 4}
}

// normalize fills zero fields with usable defaults.
func (h Hardware) normalize() Hardware {
	if h.CPUs <= 0 {
		h.CPUs = 1
	}
	if h.MemoryPages <= 0 {
		h.MemoryPages = 1 << 14
	}
	if h.RandomFactor <= 0 {
		h.RandomFactor = 4
	}
	return h
}

// Cost model constants: the unit is one sequential page read.
const (
	cpuPerRow     = 0.001  // CPU cost of touching one row
	cpuPerProbe   = 0.0015 // CPU cost of one hash probe/insert
	cpuPerCompare = 0.0003 // CPU cost of one comparison during sorts
	startupCost   = 0.05   // fixed per-operator startup
	btreeFanout   = 150.0  // separator entries per non-leaf page
)

// StatsProvider supplies the statistical information the optimizer consults.
// The *stats.Store type satisfies it.
type StatsProvider interface {
	HistogramFor(table, column string) *stats.Histogram
	DensityFor(table string, cols []string) (float64, bool)
}

// Optimizer estimates statement costs under hypothetical configurations.
type Optimizer struct {
	Cat   *catalog.Catalog
	Stats StatsProvider
	HW    Hardware
}

// analysis is the optimizer's entry in a statement's memo slot: the
// statement's analysis against one catalog.
type analysis struct {
	cat *catalog.Catalog
	q   *QueryInfo
}

// analyze resolves the statement against the catalog. Tuning optimizes the
// same statement under thousands of configurations and the analysis is
// configuration-independent, so it is kept in the statement's own memo slot:
// it lives exactly as long as the statement, however many statements a
// session cycles through, and a long-running server that tunes ever new
// sessions holds the analyses of live statements only. The slot holds the
// latest catalog's analysis; the QueryInfo.Stmt check rejects a memo copied
// along with a statement value.
func (o *Optimizer) analyze(stmt sqlparser.Statement) (*QueryInfo, error) {
	memo := stmt.Memo()
	if a, _ := memo.Load().(*analysis); a != nil && a.cat == o.Cat && a.q.Stmt == stmt {
		return a.q, nil
	}
	q, err := Analyze(o.Cat, stmt)
	if err != nil {
		return nil, err
	}
	memo.Store(&analysis{cat: o.Cat, q: q})
	return q, nil
}

// New creates an optimizer over the catalog with the given statistics and
// hardware model.
func New(cat *catalog.Catalog, sp StatsProvider, hw Hardware) *Optimizer {
	return &Optimizer{Cat: cat, Stats: sp, HW: hw.normalize()}
}

// Result is the outcome of one what-if optimization.
type Result struct {
	// Cost is the optimizer-estimated cost in sequential-page units.
	Cost float64
	// Plan is the chosen physical plan.
	Plan *Plan
	// RequiredStats lists the statistics the optimizer wanted but could not
	// find; on a production/test split these must be created on the
	// production server and imported (paper §5.3 Step 2).
	RequiredStats []stats.Request
	// UsedStructures holds the Keys of configuration structures the chosen
	// plan uses, for analysis reports (paper §6.3).
	UsedStructures []string
}

// Optimize returns the estimated cost and plan of stmt as if cfg were
// materialized in the database. cfg may be nil (raw heaps only).
func (o *Optimizer) Optimize(stmt sqlparser.Statement, cfg *catalog.Configuration) (*Result, error) {
	res, _, err := o.optimize(stmt, cfg, false)
	return res, err
}

// optimize is Optimize and, with wantAlts, OptimizeAlternatives: the plan
// and, when asked for, its skeleton come out of one optimization.
func (o *Optimizer) optimize(stmt sqlparser.Statement, cfg *catalog.Configuration, wantAlts bool) (*Result, *Alternatives, error) {
	if cfg == nil {
		cfg = catalog.NewConfiguration()
	}
	ctx := &optContext{opt: o, cfg: cfg, wanted: map[string]stats.Request{}}
	var plan *Plan
	var alts *Alternatives
	var err error
	switch s := stmt.(type) {
	case *sqlparser.Select:
		var q *QueryInfo
		if q, err = o.analyze(s); err == nil {
			plan = ctx.optimizeSelect(q)
			if wantAlts && len(q.Scopes) == 1 {
				alts = ctx.selectAlternatives(q)
			} else if wantAlts && len(q.Scopes) > 1 {
				alts = &Alternatives{Join: ctx.joinAlternatives(q)}
			}
		}
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		var m *Maintenance
		plan, m, err = ctx.optimizeDML(s)
		if wantAlts {
			alts = &Alternatives{Maint: m}
		}
	default:
		return nil, nil, fmt.Errorf("optimizer: unsupported statement type %T", stmt)
	}
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Cost: plan.Cost, Plan: plan}
	for _, r := range ctx.wanted {
		res.RequiredStats = append(res.RequiredStats, r)
	}
	sortRequests(res.RequiredStats)
	res.UsedStructures = plan.structureKeys()
	return res, alts, nil
}

// optContext carries per-optimization state: one statement under one
// configuration.
type optContext struct {
	opt    *Optimizer
	cfg    *catalog.Configuration
	wanted map[string]stats.Request // stats we looked for and missed

	// paths holds each scope's access paths once enumerated (scopePaths);
	// paths1 backs it for a single-scope query without an allocation.
	paths  [][]accessPath
	paths1 [1][]accessPath
	// join is the scope table of a multi-scope SELECT (liveJoin).
	join *liveJoin
	// views holds the configuration's views that answer the query, matched
	// and costed once (viewPlans); viewsDone marks it built.
	views     []viewPlan
	viewsDone bool
}

func (c *optContext) hw() Hardware { return c.opt.HW }

// wantStat records that the optimizer would benefit from a statistic.
func (c *optContext) wantStat(table string, cols []string) {
	r := stats.Request{Table: table, Columns: cols}
	c.wanted[r.Key()] = r
}

// histogram fetches a histogram for the column, recording a miss.
func (c *optContext) histogram(table, column string) *stats.Histogram {
	if c.opt.Stats != nil {
		if h := c.opt.Stats.HistogramFor(table, column); h != nil {
			return h
		}
	}
	c.wantStat(table, []string{column})
	return nil
}

// density fetches the density of a column set, recording a miss and falling
// back to catalog distinct counts under independence.
func (c *optContext) density(t *catalog.Table, cols []string) float64 {
	if c.opt.Stats != nil {
		if d, ok := c.opt.Stats.DensityFor(t.Name, cols); ok {
			return d
		}
	}
	c.wantStat(t.Name, cols)
	distinct := 1.0
	for _, col := range cols {
		distinct *= float64(t.DistinctOf(col))
	}
	if distinct > float64(t.Rows) {
		distinct = float64(t.Rows)
	}
	if distinct < 1 {
		distinct = 1
	}
	return 1 / distinct
}

// parallelism returns the degree of parallelism a scan of the given size
// gets: larger scans parallelize up to the CPU count.
func (c *optContext) parallelism(pages float64) float64 {
	return parallelismHW(c.hw(), pages)
}

// parallelismHW is parallelism over an explicit hardware model: the plan
// skeletons the derivation layer replays carry the Hardware they were costed
// under and must run the exact arithmetic the live optimizer runs, so the
// computation lives in one shared function rather than two copies that
// could drift.
func parallelismHW(hw Hardware, pages float64) float64 {
	p := math.Floor(pages/256) + 1
	if p > float64(hw.CPUs) {
		p = float64(hw.CPUs)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sortCostHW returns the cost of sorting rows of the given page volume
// under a hardware model: n·log₂(n) comparisons plus spill I/O when the
// input exceeds memory.
func sortCostHW(hw Hardware, rows, pages float64) float64 {
	if rows < 2 {
		return startupCost
	}
	cost := startupCost + rows*math.Log2(rows)*cpuPerCompare
	if pages > float64(hw.MemoryPages) {
		cost += 2 * pages // one spill write + read pass
	}
	return cost / parallelismHW(hw, pages)
}

// hashCost returns the cost of building and probing a hash table.
func (c *optContext) hashCost(buildRows, buildPages, probeRows float64) float64 {
	return hashCostHW(c.hw(), buildRows, buildPages, probeRows)
}

// hashCostHW is hashCost over an explicit hardware model (see parallelismHW
// for why the shared form exists).
func hashCostHW(hw Hardware, buildRows, buildPages, probeRows float64) float64 {
	cost := startupCost + buildRows*cpuPerProbe + probeRows*cpuPerProbe
	if buildPages > float64(hw.MemoryPages) {
		cost += 2 * buildPages // grace-hash spill
	}
	return cost
}

// btreeDepth returns the number of non-leaf levels descended per seek into
// an index with the given number of leaf pages: one for tiny indexes,
// growing logarithmically with the fanout.
func btreeDepth(leafPages float64) float64 {
	d := 1.0
	for pages := leafPages; pages > btreeFanout && d < 4; pages /= btreeFanout {
		d++
	}
	return d
}

func sortRequests(reqs []stats.Request) {
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].Key() < reqs[j-1].Key(); j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
}
