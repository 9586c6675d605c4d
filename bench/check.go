package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// checker validates recommendations independently of the code that produced
// them. It re-costs with its own optimizer instance over the backend's
// catalog and statistics — no cost cache, no derivation layer, no what-if
// accounting — so a cache or replay defect cannot vouch for itself.
type checker struct {
	b   *backend
	opt *optimizer.Optimizer

	// seen remembers, per variant, the structure fingerprint observed at
	// the backend's current statistics epoch. Costs depend on the
	// lazily-created statistics, so "same variant ⇒ same recommendation" is
	// only claimed while no statistic has been created in between.
	seen      map[string]string
	statEpoch int64

	failures []string
}

func newChecker(b *backend) *checker {
	return &checker{
		b:    b,
		opt:  optimizer.New(b.cat, b.srv.Stats, b.srv.HW),
		seen: map[string]string{},
	}
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 32 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// fingerprint is the sorted list of recommended structure keys. Sorted,
// because table-partitioning entries reach NewStructures in map order: two
// runs recommending the same design may list them differently.
func fingerprint(rec *core.Recommendation) string {
	keys := make([]string, len(rec.NewStructures))
	for i, st := range rec.NewStructures {
		keys[i] = st.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// workloadCost sums weight × optimizer cost over the statements under cfg.
func (c *checker) workloadCost(w *workload.Workload, cfg *catalog.Configuration) (float64, error) {
	var total float64
	for _, e := range w.Events {
		res, err := c.opt.Optimize(e.Stmt, cfg)
		if err != nil {
			return 0, err
		}
		total += e.Weight * res.Cost
	}
	return total, nil
}

// relTol is the tolerance of the independent improvement re-derivation.
const relTol = 1e-9

// checkRec validates one recommendation: it ran to completion, fits the
// storage budget (bytes beyond the base configuration), validates against
// the catalog, and — when the sealed pool is at hand and no statistic was
// created while it ran — reports exactly the improvement an independent
// re-costing of the tuned workload yields. label names the op in failure
// messages. It reports whether the op passed.
func (c *checker) checkRec(label string, rec *core.Recommendation, err error, budgetMB int64, pool *core.CostedPool) bool {
	before := len(c.failures)
	switch {
	case err != nil:
		c.failf("%s: %v", label, err)
		return false
	case rec == nil:
		c.failf("%s: no recommendation", label)
		return false
	case rec.StopReason != "":
		c.failf("%s: stopped early (%s)", label, rec.StopReason)
	}
	if budget := budgetMB << 20; rec.StorageBytes > budget {
		c.failf("%s: storage %d B over budget %d B", label, rec.StorageBytes, budget)
	}
	if rec.Config == nil {
		c.failf("%s: recommendation carries no configuration", label)
		return false
	}
	if verr := rec.Config.Validate(c.b.cat); verr != nil {
		c.failf("%s: configuration invalid: %v", label, verr)
	}
	if extra := rec.Config.StorageBytes(c.b.cat) - c.b.base.StorageBytes(c.b.cat); extra > budgetMB<<20 {
		c.failf("%s: recomputed storage %d B over budget", label, extra)
	}
	if rec.Improvement <= 0 || rec.Improvement >= 1 || math.IsNaN(rec.Improvement) {
		c.failf("%s: improvement %.6f outside (0,1)", label, rec.Improvement)
	}
	if pool != nil && rec.StatsCreated == 0 {
		c.recost(label, rec, pool)
	}
	return len(c.failures) == before
}

// recost re-derives the improvement from the pool's tuned statements.
func (c *checker) recost(label string, rec *core.Recommendation, pool *core.CostedPool) {
	w, err := workload.FromStatements(pool.Statements)
	if err != nil {
		c.failf("%s: pool statements: %v", label, err)
		return
	}
	base := pool.Base
	if base == nil {
		base = catalog.NewConfiguration()
	}
	baseCost, err := c.workloadCost(w, base)
	if err != nil {
		c.failf("%s: re-cost base: %v", label, err)
		return
	}
	recCost, err := c.workloadCost(w, rec.Config)
	if err != nil {
		c.failf("%s: re-cost recommendation: %v", label, err)
		return
	}
	got := (baseCost - recCost) / baseCost
	if math.Abs(got-rec.Improvement) > relTol*math.Abs(rec.Improvement) {
		c.failf("%s: reported improvement %.12f, independent re-costing gives %.12f", label, rec.Improvement, got)
	}
}

// checkStable asserts that the same variant yields a byte-identical
// structure fingerprint across ops while the statistics epoch stands
// still.
func (c *checker) checkStable(label, variant string, rec *core.Recommendation) bool {
	if rec == nil {
		return false
	}
	if epoch := c.b.srv.Acct().StatsCreated; epoch != c.statEpoch {
		c.statEpoch = epoch
		c.seen = map[string]string{}
	}
	fp := fingerprint(rec)
	if prev, ok := c.seen[variant]; ok && prev != fp {
		c.failf("%s: variant %s changed its recommendation between ops:\n%s--- vs ---\n%s", label, variant, prev, fp)
		return false
	}
	c.seen[variant] = fp
	return true
}

// sameRec asserts two recommendations agree byte for byte on structures and
// exactly on improvement (Revise ≡ fresh Tune; Parallelism 1 ≡ nproc).
func (c *checker) sameRec(label string, a, b *core.Recommendation) bool {
	if a == nil || b == nil {
		c.failf("%s: missing recommendation", label)
		return false
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		c.failf("%s: structures differ:\n%s--- vs ---\n%s", label, fa, fb)
		return false
	}
	if a.Improvement != b.Improvement {
		c.failf("%s: improvement %.12f vs %.12f", label, a.Improvement, b.Improvement)
		return false
	}
	return true
}
