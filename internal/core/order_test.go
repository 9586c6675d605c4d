package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// shuffled returns w's events in a seeded random order (the events
// themselves are shared: a workload is an ordered multiset of them).
func shuffled(w *workload.Workload, seed int64) *workload.Workload {
	out := &workload.Workload{Events: append([]*workload.Event(nil), w.Events...)}
	rand.New(rand.NewSource(seed)).Shuffle(len(out.Events), func(a, b int) {
		out.Events[a], out.Events[b] = out.Events[b], out.Events[a]
	})
	return out
}

// selectionPrint renders a sealed pool's candidate-selection outcome
// independently of event order: one line per event — its statement, weight,
// base and best cost (exact bits) and chosen structures — sorted, then the
// candidate pool as a sorted key set. It also returns the selection's
// improvement estimate, Σ weighted gain / Σ weighted base cost, folded in
// event order.
//
// The count of statistics created is deliberately left out: §5.2
// reduction runs per request batch, so on a cold backend which statistics
// a batch creates depends on the batches before it.
func selectionPrint(p *CostedPool) (string, float64) {
	var lines []string
	var gain, base float64
	for _, g := range p.Gains {
		st := p.Statements[g.Query]
		lines = append(lines, fmt.Sprintf("%s|%v|%x|%x|%s", st.SQL, st.Weight,
			math.Float64bits(g.BaseCost), math.Float64bits(g.BestCost), strings.Join(g.Structures, ",")))
		w := st.Weight
		if w == 0 {
			w = 1
		}
		gain += float64((g.BaseCost - g.BestCost) * w)
		base += float64(g.BaseCost * w)
	}
	sort.Strings(lines)
	keys := make([]string, 0, len(p.Candidates))
	for _, s := range p.Candidates {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	return strings.Join(lines, "\n") + "\ncandidates:\n" + strings.Join(keys, "\n"), gain / base
}

// TestWorkloadOrderInvariance: permuting a workload's events leaves every
// query's candidate selection unchanged. Candidate selection creates every
// query's statistics before costing any of them, so a query's costs do not
// depend on its position in the workload. Each toy workload runs
// uncompressed (compression's k-center choice is order-sensitive by
// design), original and shuffled, at Parallelism 1 and 4, on a backend
// warmed by one prior tune and on cold backends. The per-query outcomes and
// the candidate set must be byte-identical; the improvement estimate only
// within float rounding, since its sums fold in a different order.
//
// The recommendation itself is not yet order-invariant: the search layer
// consumes the candidate pool in selection order, which merging, pool
// capping and the seed enumeration's cost ties all see.
func TestWorkloadOrderInvariance(t *testing.T) {
	for _, name := range []string{"tpch", "synt1", "psoft"} {
		t.Run(name, func(t *testing.T) {
			backend := func() (*whatif.Server, *workload.Workload, Options) {
				srv, w, base := toyBackend(t, name)
				if len(w.Events) > 40 {
					w = &workload.Workload{Events: w.Events[:40]}
				}
				return srv, w, Options{Features: FeatureAll, BaseConfig: base, NoCompression: true, SkipReports: true}
			}
			_, w, opts := backend()
			perm := shuffled(w, 7)
			warm, _, _ := backend()
			if _, err := Tune(warm, w, opts); err != nil {
				t.Fatal(err)
			}
			for _, leg := range []struct {
				name   string
				server func() *whatif.Server
			}{
				{"warm", func() *whatif.Server { return warm }},
				{"cold", func() *whatif.Server { srv, _, _ := backend(); return srv }},
			} {
				t.Run(leg.name, func(t *testing.T) {
					var want string
					var wantImp float64
					for _, par := range []int{1, 4} {
						for _, run := range []struct {
							order string
							w     *workload.Workload
						}{{"original", w}, {"shuffled", perm}} {
							var pool *CostedPool
							o := opts
							o.Parallelism = par
							o.PoolSink = func(p *CostedPool) { pool = p }
							if _, err := Tune(leg.server(), run.w, o); err != nil {
								t.Fatalf("P=%d %s: %v", par, run.order, err)
							}
							got, imp := selectionPrint(pool)
							if par == 1 && run.order == "original" {
								want, wantImp = got, imp
								if len(pool.Gains) == 0 {
									t.Fatal("no query gained; the test exercises nothing")
								}
								continue
							}
							if got != want {
								t.Errorf("P=%d %s: candidate selection differs from P=1 original:\n%s", par, run.order, lineDiff(want, got))
							}
							if d := math.Abs(imp - wantImp); d > 1e-12*math.Abs(wantImp) {
								t.Errorf("P=%d %s: improvement estimate %v, want %v", par, run.order, imp, wantImp)
							}
						}
					}
				})
			}
		})
	}
}

// lineDiff lists the lines only one of two renderings holds.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "- "+l)
		case n < 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
