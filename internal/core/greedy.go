package core

import (
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/derive"
	"repro/internal/journal"
	"repro/internal/obs"
)

// validFn rejects configurations the search may not consider (e.g. the
// eager-alignment ablation filters unaligned configurations).
type validFn func(cfg *catalog.Configuration) bool

// greedyOptions parameterizes one Greedy(m,k) search.
type greedyOptions struct {
	m, k   int
	budget int64 // extra storage allowed beyond base (0 = unlimited)
	// aligned applies candidates with lazy alignment (applyAligned, paper
	// §4) instead of plain Structure.ApplyTo.
	aligned bool
	valid   validFn
	// onStep, when set, observes the best configuration's cost after each
	// completed greedy growth step (progress reporting).
	onStep func(cost float64)
	// scope labels this search's decision-journal events ("query" for a
	// per-query candidate selection, "enumeration" for the global
	// search); empty means the search does not journal. query is the
	// workload event index for per-query searches (-1 otherwise).
	scope string
	query int
	// log, when set, buffers the search's journal events instead of
	// appending them to the session journal: a per-query search runs on a
	// pool worker beside other queries' searches, and its coordinator
	// appends the buffer in event order.
	log *journal.Buffer
}

// record journals one decision event of the search: into the buffer when
// set, else into the session tracker's journal.
func (o greedyOptions) record(tr *tracker, e journal.Event) {
	if o.log != nil {
		o.log.Add(e)
		return
	}
	tr.record(e)
}

// candidate is one structure of a search's pool with its own key — the
// tie-break and journal currency — interned once per search: x is the
// structure applying it adds (partitionings are keyed by the lower-cased
// table, as Configuration stores them).
type candidate struct {
	derive.Keyed
	x *structInfo
}

// candidates interns a search's pool under the keys the candidates carry;
// only a partitioning named by a table that is not lower-case is re-keyed,
// as the structure applying it adds.
func (ev *evaluator) candidates(cands []derive.Keyed) []candidate {
	out := make([]candidate, len(cands))
	for i, k := range cands {
		applied := k
		if s := k.Structure; s.Index == nil && s.View == nil {
			if t := strings.ToLower(s.PartTable); t != s.PartTable {
				applied.Structure.PartTable = t
				applied.Key = applied.Structure.Key()
			}
		}
		out[i] = candidate{Keyed: k, x: ev.intern(applied)}
	}
	return out
}

// frontierEval is one candidate's evaluation within a parallel frontier:
// the configuration grown by the candidate, its cost and the events it
// re-costed, or the evaluation error, or ok=false when the candidate did not
// apply (no change, over budget, invalid, or skipped because the session
// stopped).
type frontierEval struct {
	c    *config
	cost float64
	ov   []override
	err  error
	ok   bool
}

// evalFrontier grows the costed parent by each listed candidate, admits the
// child, and costs it incrementally (evaluator.child) on the session's
// worker pool. Results come back indexed by candidate so callers can reduce
// them sequentially in candidate order — the property that makes a parallel
// sweep pick the same winner as a sequential one. It reports the worker
// count for observability.
func evalFrontier(ev *evaluator, o greedyOptions, sc *scope, parent *costed, cands []candidate, fits func(*config) bool) ([]frontierEval, int) {
	res := make([]frontierEval, len(cands))
	tr := ev.tr
	workers := tr.pool.each(len(cands), func(i int) {
		if tr.stopped() {
			return
		}
		c, ok := ev.extend(parent.c, cands[i].Structure, cands[i].x, o.aligned)
		if !ok {
			return
		}
		if !fits(c) || (o.valid != nil && !o.valid(c.catalog())) {
			return
		}
		cost, ov, err := ev.child(sc, parent, c)
		if err != nil {
			res[i] = frontierEval{err: err}
			return
		}
		res[i] = frontierEval{c: c, cost: cost, ov: ov, ok: true}
	})
	if tr.metrics != nil && len(cands) > 0 {
		tr.metrics.Histogram("dta_greedy_frontier_size",
			"Candidate configurations evaluated per greedy frontier sweep.",
			obs.CountBuckets).Observe(float64(len(cands)))
		tr.metrics.Histogram("dta_pool_workers_used",
			"Workers participating in one parallel frontier sweep.",
			obs.CountBuckets).Observe(float64(workers))
	}
	return res, workers
}

// better reports whether a frontier candidate (cost c, structure key k)
// beats the incumbent (cost bc, structure key bk, "" = none yet). The
// tie-break — lower cost first, then lexicographically smaller structure key
// — is applied at every parallelism level including 1, so parallel and
// sequential runs pick identical winners.
func better(c float64, k string, bc float64, bk string) bool {
	if c != bc {
		return c < bc
	}
	return bk != "" && k < bk
}

// greedySearch implements the Greedy(m,k) algorithm of [8] (paper §2.2):
// the optimal subset of at most m structures is found by exhaustive
// enumeration, then structures are added greedily up to k total, as long as
// cost improves and the storage budget holds. The search starts from the
// interned base configuration root. It returns the chosen structures
// (possibly none), with their keys, and the configuration they form over
// root.
//
// Each frontier — the candidates considered at one seed-enumeration level
// or in one greedy growth step — is evaluated concurrently on the session's
// worker pool, then reduced sequentially in candidate order with a
// deterministic tie-break (cost, then structure key), so the chosen subset
// is independent of Options.Parallelism. Each child is costed incrementally
// from its parent's per-event costs (evaluator.child), and the winner of a
// frontier carries its own forward.
//
// The search is an anytime algorithm: when the evaluator's tracker reports
// cancellation or an exhausted time budget — checked between candidate
// evaluations, and surfaced as errStopped from within a cost evaluation —
// the best subset found so far is returned with a nil error.
func greedySearch(ev *evaluator, sc *scope, base *config, cands []derive.Keyed, o greedyOptions) ([]derive.Keyed, *config, error) {
	tr := ev.tr
	if o.m < 1 {
		o.m = 1
	}
	if o.k < o.m {
		o.k = o.m
	}
	root, err := ev.costAll(sc, base)
	if err != nil {
		if stopping(err) {
			return nil, base, nil // stopped before the search began: choose nothing
		}
		return nil, nil, err
	}
	baseCost := root.total
	baseStorage := root.c.storage()

	fits := func(c *config) bool {
		if o.budget <= 0 {
			return true
		}
		return c.storage()-baseStorage <= o.budget
	}
	expired := tr.stopped
	pool := ev.candidates(cands)

	type state struct {
		chosen []derive.Keyed
		node   *costed
	}
	best := state{node: root}

	// Seed: exhaustively evaluate subsets of size ≤ m. Each enumeration
	// level's extensions are costed in parallel up front, then the fold —
	// best updates and recursion into each extension's subtree — runs
	// sequentially in candidate order, which is exactly the sequential DFS's
	// preorder update sequence (costs are deterministic, so prefetching them
	// concurrently changes nothing but wall-clock).
	seedCtx, seedSpan := obs.StartSpan(ev.spanParent(sc.span), "greedy", "greedy-seed")
	seedSpan.SetInt("m", o.m).SetInt("candidates", len(cands))
	seedScope := sc.under(seedCtx)
	var trySubset func(start int, cur state, size int) error
	trySubset = func(start int, cur state, size int) error {
		if size == o.m || expired() {
			return nil
		}
		res, _ := evalFrontier(ev, o, seedScope, cur.node, pool[start:], fits)
		for j, r := range res {
			if expired() {
				return nil
			}
			if r.err != nil {
				return r.err
			}
			if !r.ok {
				continue
			}
			improves := r.cost < best.node.total
			if !improves && size+1 == o.m {
				continue // neither the new best nor a subtree to recurse into
			}
			i := start + j
			next := state{
				chosen: append(append([]derive.Keyed(nil), cur.chosen...), cands[i]),
				node:   cur.node.with(r.c, r.cost, r.ov),
			}
			if improves {
				best = next
			}
			if err := trySubset(i+1, next, size+1); err != nil {
				return err
			}
		}
		return nil
	}
	err = trySubset(0, best, 0)
	seedSpan.End()
	if o.scope != "" && tr.journaling() && len(best.chosen) > 0 {
		ev := journal.Ev(journal.KindSeed)
		ev.Scope, ev.Query = o.scope, o.query
		for _, s := range best.chosen {
			ev.Structures = append(ev.Structures, s.Key)
		}
		ev.Accepted = true
		ev.CostBefore, ev.CostAfter = baseCost, best.node.total
		ev.Alternatives = len(cands)
		o.record(tr, ev)
	}
	if err != nil {
		if stopping(err) {
			return best.chosen, best.node.c, nil
		}
		return nil, nil, err
	}

	// Greedy growth to k. Each growth step — one sweep over the candidate
	// pool picking the structure that lowers cost most — is a span, so a
	// timeline shows how the per-step what-if cost shrinks as the evaluator
	// cache warms up.
	for step := 0; len(best.chosen) < o.k && !expired(); step++ {
		stepCtx, stepSpan := obs.StartSpan(ev.spanParent(sc.span), "greedy", "greedy-step")
		stepSpan.SetInt("step", step).SetInt("chosen", len(best.chosen))
		grew, err := func() (bool, error) {
			// One sweep over the candidate pool: evaluate the whole frontier
			// in parallel, then pick the winner sequentially in candidate
			// order (ties broken by structure key — see better).
			res, workers := evalFrontier(ev, o, sc.under(stepCtx), best.node, pool, fits)
			stepSpan.SetInt("workers", workers)
			bestIdx := -1
			bestCost := math.Inf(1)
			bestKey := ""
			// The runner-up — the structure the step would have taken had the
			// winner not existed — is tracked through the same deterministic
			// reduction purely for the decision journal.
			runnerCost := math.Inf(1)
			runnerKey := ""
			alternatives := 0
			for i, r := range res {
				if r.err != nil {
					return false, r.err
				}
				if !r.ok {
					continue
				}
				alternatives++
				if bestIdx < 0 || better(r.cost, pool[i].Key, bestCost, bestKey) {
					runnerCost, runnerKey = bestCost, bestKey
					bestIdx, bestCost, bestKey = i, r.cost, pool[i].Key
				} else if runnerKey == "" || better(r.cost, pool[i].Key, runnerCost, runnerKey) {
					runnerCost, runnerKey = r.cost, pool[i].Key
				}
			}
			if expired() {
				return false, nil
			}
			journalStep := func(accepted bool) {
				if o.scope == "" || !tr.journaling() || bestIdx < 0 {
					return
				}
				ev := journal.Ev(journal.KindStep)
				ev.Scope, ev.Query, ev.Step = o.scope, o.query, step
				ev.Structure = bestKey
				ev.Accepted = accepted
				ev.CostBefore, ev.CostAfter = best.node.total, bestCost
				ev.Alternatives = alternatives
				if runnerKey != "" {
					ev.RunnerUp, ev.RunnerUpCost = runnerKey, runnerCost
				}
				o.record(tr, ev)
			}
			// A step must improve the cost by a relative 1e-4 to continue.
			const minImprove = 1e-4
			if bestIdx < 0 || bestCost >= best.node.total*(1-minImprove) {
				journalStep(false)
				return false, nil
			}
			journalStep(true)
			w := res[bestIdx]
			best = state{
				chosen: append(best.chosen, cands[bestIdx]),
				node:   best.node.with(w.c, w.cost, w.ov),
			}
			stepSpan.SetString("picked", bestKey).SetFloat("cost", bestCost)
			if tr.metrics != nil {
				tr.metrics.Counter("dta_greedy_steps_total",
					"Completed Greedy(m,k) growth steps.").Inc()
			}
			if o.onStep != nil {
				o.onStep(best.node.total)
			}
			return true, nil
		}()
		stepSpan.End()
		if err != nil {
			if stopping(err) {
				return best.chosen, best.node.c, nil
			}
			return nil, nil, err
		}
		if !grew {
			break
		}
	}
	return best.chosen, best.node.c, nil
}
