package stats

import (
	"sort"
	"strings"
)

// Request names one statistic DTA would have to create: an ordered column
// list on a table, corresponding to the key columns of a what-if index.
type Request struct {
	Table   string
	Columns []string
}

// Key returns the canonical identity of the request.
func (r Request) Key() string { return StatKey(r.Table, r.Columns) }

func (r Request) canon() Request {
	out := Request{Table: strings.ToLower(r.Table), Columns: make([]string, len(r.Columns))}
	for i, c := range r.Columns {
		out.Columns[i] = strings.ToLower(c)
	}
	return out
}

// Reduce implements the reduced-statistics-creation algorithm of paper §5.2.
//
// Given a set of requested statistics S, where each statistic on (A,B,C)
// would contain a histogram on its leading column A and density information
// on each leading prefix (A), (A,B), (A,B,C), Reduce returns a small subset
// S' ⊆ S that contains the same histogram and density information as S:
//
//	Step 1: build the H-List (columns needing histograms) and D-List
//	        (unordered column sets needing densities; Density(A,B) =
//	        Density(B,A), so (B,A) never enters the D-List when (A,B) has).
//	Step 2: greedily pick the remaining statistic covering the most
//	        uncovered H-List and D-List entries.
//	Step 3: remove the covered entries; repeat until both lists are empty.
//
// The result preserves request order among the chosen statistics, and the
// reduction never changes recommendation quality — it only removes
// redundant statistical information.
func Reduce(reqs []Request) []Request {
	canon := make([]Request, len(reqs))
	seen := map[string]bool{}
	var uniq []Request
	for i, r := range reqs {
		canon[i] = r.canon()
		if k := canon[i].Key(); !seen[k] && len(canon[i].Columns) > 0 {
			seen[k] = true
			uniq = append(uniq, canon[i])
		}
	}
	if len(uniq) <= 1 {
		return uniq
	}

	// Step 1: H-List and D-List.
	hList := map[string]bool{} // "table|col"
	dList := map[string]bool{} // "table|sortedColSet"
	for _, r := range uniq {
		hList[r.Table+"|"+r.Columns[0]] = true
		for p := 1; p <= len(r.Columns); p++ {
			dList[r.Table+"|"+canonSet(r.Columns[:p])] = true
		}
	}

	remaining := append([]Request(nil), uniq...)
	var chosen []Request
	for len(hList)+len(dList) > 0 && len(remaining) > 0 {
		// Step 2: pick the statistic covering the most uncovered entries.
		// Ties break toward the wider statistic, then input order, keeping
		// the algorithm deterministic.
		bestIdx, bestCover := -1, -1
		for i, r := range remaining {
			cover := 0
			if hList[r.Table+"|"+r.Columns[0]] {
				cover++
			}
			for p := 1; p <= len(r.Columns); p++ {
				if dList[r.Table+"|"+canonSet(r.Columns[:p])] {
					cover++
				}
			}
			if cover > bestCover || (cover == bestCover && len(r.Columns) > len(remaining[bestIdx].Columns)) {
				bestIdx, bestCover = i, cover
			}
		}
		if bestCover <= 0 {
			break // everything left is redundant
		}
		pick := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		chosen = append(chosen, pick)

		// Step 3: remove covered entries.
		delete(hList, pick.Table+"|"+pick.Columns[0])
		for p := 1; p <= len(pick.Columns); p++ {
			delete(dList, pick.Table+"|"+canonSet(pick.Columns[:p]))
		}
	}

	// Preserve the original request order in the output for stable reports.
	rank := map[string]int{}
	for i, r := range uniq {
		rank[r.Key()] = i
	}
	sort.Slice(chosen, func(i, j int) bool { return rank[chosen[i].Key()] < rank[chosen[j].Key()] })
	return chosen
}

// Satisfied reports whether the store already carries all information the
// requested statistic would provide: a histogram on the leading column and
// a density for every leading prefix (as an unordered set). A store holding
// a statistic on (A,B) satisfies requests for (A) and for (B,A)'s density
// prefix {A,B} without any new create-statistics statement.
func Satisfied(store *Store, r Request) bool {
	r = r.canon()
	if len(r.Columns) == 0 {
		return true
	}
	if !store.CoversHistogram(r.Table, r.Columns[0]) {
		return false
	}
	for p := 1; p <= len(r.Columns); p++ {
		if _, ok := store.DensityFor(r.Table, r.Columns[:p]); !ok {
			return false
		}
	}
	return true
}

// Missing returns the requests the store cannot yet serve, the rule every
// statistics-creating backend applies before it builds anything. With reduce
// (§5.2) a request counts as served when the store already carries its
// information (Satisfied), and the rest is reduced to a covering minimal set;
// without it only an exact statistic serves a request.
func (s *Store) Missing(reqs []Request, reduce bool) []Request {
	var missing []Request
	for _, r := range reqs {
		if reduce {
			if !Satisfied(s, r) {
				missing = append(missing, r)
			}
		} else if !s.Has(r.Table, r.Columns) {
			missing = append(missing, r)
		}
	}
	if reduce {
		missing = Reduce(missing)
	}
	return missing
}

// Covers verifies that the reduced set carries the same histogram and
// density information as the full set: every leading column of full has a
// histogram source in reduced, and every leading prefix (as a set) of full
// has a density source in reduced. Exported so tests and callers can assert
// the §5.2 invariant.
func Covers(reduced, full []Request) bool {
	hHave := map[string]bool{}
	dHave := map[string]bool{}
	for _, r := range reduced {
		r = r.canon()
		if len(r.Columns) == 0 {
			continue
		}
		hHave[r.Table+"|"+r.Columns[0]] = true
		for p := 1; p <= len(r.Columns); p++ {
			dHave[r.Table+"|"+canonSet(r.Columns[:p])] = true
		}
	}
	for _, r := range full {
		r = r.canon()
		if len(r.Columns) == 0 {
			continue
		}
		if !hHave[r.Table+"|"+r.Columns[0]] {
			return false
		}
		for p := 1; p <= len(r.Columns); p++ {
			if !dHave[r.Table+"|"+canonSet(r.Columns[:p])] {
				return false
			}
		}
	}
	return true
}
