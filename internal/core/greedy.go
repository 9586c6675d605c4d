package core

import (
	"math"
	"strings"

	"repro/internal/catalog"
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
	// tr carries the session's cancellation and time budget; the search
	// checks it between candidate evaluations and returns its best subset
	// so far when stopped (anytime behaviour).
	tr *tracker
	// onStep, when set, observes the best configuration's cost after each
	// completed greedy growth step (progress reporting).
	onStep func(cost float64)
	// minImprove is the minimum relative improvement a greedy step must
	// deliver to continue.
	minImprove float64
	// scope labels this search's decision-journal events ("query" for a
	// per-query candidate selection, "enumeration" for the global
	// search); empty means the search does not journal. query is the
	// workload event index for per-query searches (-1 otherwise).
	scope string
	query int
}

// candidate is one structure of a search's pool, interned once per search:
// x is the structure applying s adds (partitionings are keyed by the
// lower-cased table, as Configuration stores them) and key is s's own key,
// the tie-break and journal currency.
type candidate struct {
	s   catalog.Structure
	x   *structInfo
	key string
}

func (ev *evaluator) candidates(cands []catalog.Structure) []candidate {
	out := make([]candidate, len(cands))
	for i, s := range cands {
		applied := s
		if s.Index == nil && s.View == nil {
			applied.PartTable = strings.ToLower(s.PartTable)
		}
		out[i] = candidate{s: s, x: ev.structure(applied), key: s.Key()}
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
	workers := ev.pool().each(len(cands), func(i int) {
		if o.tr.stopped() {
			return
		}
		c, ok := ev.extend(parent.c, cands[i].s, cands[i].x, o.aligned)
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
	if o.tr != nil && o.tr.metrics != nil && len(cands) > 0 {
		o.tr.metrics.Histogram("dta_greedy_frontier_size",
			"Candidate configurations evaluated per greedy frontier sweep.",
			obs.CountBuckets).Observe(float64(len(cands)))
		o.tr.metrics.Histogram("dta_pool_workers_used",
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
// cost improves and the storage budget holds. It returns the chosen
// structures (possibly none).
//
// Each frontier — the candidates considered at one seed-enumeration level
// or in one greedy growth step — is evaluated concurrently on the session's
// worker pool, then reduced sequentially in candidate order with a
// deterministic tie-break (cost, then structure key), so the chosen subset
// is independent of Options.Parallelism. Each child is costed incrementally
// from its parent's per-event costs (evaluator.child), and the winner of a
// frontier carries its own forward.
//
// The search is an anytime algorithm: when the session's tracker reports
// cancellation or an exhausted time budget — checked between candidate
// evaluations, and surfaced as errStopped from within a cost evaluation —
// the best subset found so far is returned with a nil error.
func greedySearch(ev *evaluator, sc *scope, base *catalog.Configuration, cands []catalog.Structure, o greedyOptions) ([]catalog.Structure, error) {
	if o.m < 1 {
		o.m = 1
	}
	if o.k < o.m {
		o.k = o.m
	}
	if o.minImprove <= 0 {
		o.minImprove = 1e-4
	}
	root, err := ev.costAll(sc, ev.config(base))
	if err != nil {
		if stopping(err) {
			return nil, nil // stopped before the search began: choose nothing
		}
		return nil, err
	}
	baseCost := root.total
	baseStorage := root.c.storage()

	fits := func(c *config) bool {
		if o.budget <= 0 {
			return true
		}
		return c.storage()-baseStorage <= o.budget
	}
	expired := func() bool { return o.tr.stopped() }
	pool := ev.candidates(cands)

	type state struct {
		chosen []catalog.Structure
		node   *costed
	}
	best := state{node: root}

	// Seed: exhaustively evaluate subsets of size ≤ m. Each enumeration
	// level's extensions are costed in parallel up front, then the fold —
	// best updates and recursion into each extension's subtree — runs
	// sequentially in candidate order, which is exactly the sequential DFS's
	// preorder update sequence (costs are deterministic, so prefetching them
	// concurrently changes nothing but wall-clock).
	var trySubset func(start int, cur state, size int) error
	trySubset = func(start int, cur state, size int) error {
		if size == o.m || expired() {
			return nil
		}
		res, _ := evalFrontier(ev, o, sc, cur.node, pool[start:], fits)
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
				chosen: append(append([]catalog.Structure(nil), cur.chosen...), cands[i]),
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
	seedSpan, endSeed := o.tr.span("greedy", "greedy-seed")
	seedSpan.SetArg("m", o.m).SetArg("candidates", len(cands))
	err = trySubset(0, best, 0)
	endSeed()
	if o.scope != "" && o.tr.journaling() && len(best.chosen) > 0 {
		ev := journal.Ev(journal.KindSeed)
		ev.Scope, ev.Query = o.scope, o.query
		for _, s := range best.chosen {
			ev.Structures = append(ev.Structures, s.Key())
		}
		ev.Accepted = true
		ev.CostBefore, ev.CostAfter = baseCost, best.node.total
		ev.Alternatives = len(cands)
		o.tr.record(ev)
	}
	if err != nil {
		if stopping(err) {
			return best.chosen, nil
		}
		return nil, err
	}

	// Greedy growth to k. Each growth step — one sweep over the candidate
	// pool picking the structure that lowers cost most — is a span, so a
	// timeline shows how the per-step what-if cost shrinks as the evaluator
	// cache warms up.
	for step := 0; len(best.chosen) < o.k && !expired(); step++ {
		stepSpan, endStep := o.tr.span("greedy", "greedy-step")
		stepSpan.SetArg("step", step).SetArg("chosen", len(best.chosen))
		grew, err := func() (bool, error) {
			// One sweep over the candidate pool: evaluate the whole frontier
			// in parallel, then pick the winner sequentially in candidate
			// order (ties broken by structure key — see better).
			res, workers := evalFrontier(ev, o, sc, best.node, pool, fits)
			stepSpan.SetArg("workers", workers)
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
				if bestIdx < 0 || better(r.cost, pool[i].key, bestCost, bestKey) {
					runnerCost, runnerKey = bestCost, bestKey
					bestIdx, bestCost, bestKey = i, r.cost, pool[i].key
				} else if runnerKey == "" || better(r.cost, pool[i].key, runnerCost, runnerKey) {
					runnerCost, runnerKey = r.cost, pool[i].key
				}
			}
			if expired() {
				return false, nil
			}
			journalStep := func(accepted bool) {
				if o.scope == "" || !o.tr.journaling() || bestIdx < 0 {
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
				o.tr.record(ev)
			}
			if bestIdx < 0 || bestCost >= best.node.total*(1-o.minImprove) {
				journalStep(false)
				return false, nil
			}
			journalStep(true)
			w := res[bestIdx]
			best = state{
				chosen: append(best.chosen, cands[bestIdx]),
				node:   best.node.with(w.c, w.cost, w.ov),
			}
			stepSpan.SetArg("picked", bestKey).SetArg("cost", bestCost)
			if o.tr != nil && o.tr.metrics != nil {
				o.tr.metrics.Counter("dta_greedy_steps_total",
					"Completed Greedy(m,k) growth steps.").Inc()
			}
			if o.onStep != nil {
				o.onStep(best.node.total)
			}
			return true, nil
		}()
		endStep()
		if err != nil {
			if stopping(err) {
				return best.chosen, nil
			}
			return nil, err
		}
		if !grew {
			break
		}
	}
	return best.chosen, nil
}
