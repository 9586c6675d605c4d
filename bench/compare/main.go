// Command compare applies the paired-run rule to two sets of benchmark
// results: a parent build's and a change's.
//
//	go run ./bench/compare PARENT_DIR CHANGE_DIR
//
// Each directory holds the result-<workload>.json files `go run ./bench
// -out DIR/<n>` wrote, one sub-directory per run; runs are paired in sorted
// path order, so run the two builds alternately (parent 01, change 01,
// change 02, parent 02, …) with the same -seed and -seconds on both sides.
//
// One row is printed per (end-to-end metric, workload):
//
//   - improved: the change wins at least nine tenths of at least ten pairs
//     (ties count for neither side) and the medians differ by more than the
//     parent's own quartile distance;
//   - REGRESSED: the change's median is worse than the parent's by more than
//     the metric's BENCHMARK.json bound;
//   - unresolved: the parent's run-to-run spread (quartile distance over
//     median) exceeds the bound, so "no worse" cannot be told from noise, or
//     fewer than ten pairs were run;
//   - unchanged: none of the above.
//
// The exit status is 1 when any row regressed.
package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type resultFile struct {
	Header struct {
		Seed    int64 `json:"seed"`
		Seconds int   `json:"seconds"`
		Smoke   bool  `json:"smoke"`
	} `json:"header"`
	Result struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Failed   int    `json:"failed"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	parent, err := load(os.Args[1])
	if err != nil {
		fatal(err)
	}
	change, err := load(os.Args[2])
	if err != nil {
		fatal(err)
	}

	regressed := false
	fmt.Printf("%-14s %-22s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "pairs", "parent p50", "change p50", "gap", "spread", "wins", "verdict")
	for _, w := range spec.Workloads {
		a, b := parent[w.Name], change[w.Name]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			fmt.Printf("%-14s no paired runs\n", w.Name)
			continue
		}
		for _, m := range spec.EndToEnd {
			row := judge(m, column(a[:n], m.Name), column(b[:n], m.Name))
			if row.verdict == "REGRESSED" {
				regressed = true
			}
			fmt.Printf("%-14s %-22s %5d %14.6g %14.6g %+7.2f%% %7.2f%% %3d/%-2d  %s\n",
				w.Name, m.Name, n, row.medA, row.medB, 100*row.gap, 100*row.spread, row.wins, row.decided, row.verdict)
		}
	}
	if regressed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, dir := range []string{".", "..", filepath.Join("..", "..")} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", lastErr)
}

// load reads every untraced result file under dir, grouped by workload in
// sorted path order. Runs with failed ops are kept: a failed op is missing
// from its latency samples, which is how it counts against the change.
func load(dir string) (map[string][]resultFile, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "result-") && strings.HasSuffix(d.Name(), ".json") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]resultFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Result.Traced || rf.Header.Smoke {
			continue
		}
		out[rf.Result.Workload] = append(out[rf.Result.Workload], rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result-*.json files", dir)
	}
	return out, nil
}

func column(runs []resultFile, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Result.Metrics[metric].Value
	}
	return out
}

type verdictRow struct {
	medA, medB    float64
	gap           float64 // (change − parent) / parent, signed
	spread        float64 // parent quartile distance / parent median
	wins, decided int
	verdict       string
}

// judge applies the paired rule to one metric's paired samples.
func judge(m metricDef, a, b []float64) verdictRow {
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	row := verdictRow{medA: medA, medB: medB}
	if medA != 0 {
		row.gap = (medB - medA) / math.Abs(medA)
		row.spread = (q3 - q1) / math.Abs(medA)
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		row.decided++
		if better(b[i], a[i]) {
			row.wins++
		}
	}
	worseBy := row.gap
	if m.Better == "higher" {
		worseBy = -row.gap
	}
	switch {
	case worseBy > m.Bound:
		row.verdict = "REGRESSED"
	case len(a) >= minPairs && 10*row.wins >= 9*len(a) && math.Abs(medB-medA) > q3-q1:
		row.verdict = "improved"
	case len(a) < minPairs:
		row.verdict = fmt.Sprintf("unresolved (%d pairs < %d)", len(a), minPairs)
	case row.spread > m.Bound:
		row.verdict = "unresolved (spread > bound)"
	default:
		row.verdict = "unchanged"
	}
	return row
}

// quartiles returns the exclusive-method quartiles Python's
// statistics.quantiles(xs, n=4) gives.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1
		pos = math.Max(0, math.Min(pos, float64(n-1)))
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return at(1), at(2), at(3)
}
