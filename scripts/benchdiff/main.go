// Command benchdiff compares a dtabench -json result against a committed
// baseline and fails on regression. It is the CI gate behind the committed
// BENCH_*_quick.json files: the deterministic fields (what-if calls,
// derived evaluations, ingest event counts) must match the baseline
// exactly and quality fields (improvement, ratio) must match to float
// round-off. Records carry nothing machine-dependent — timing and
// allocation are the repository benchmark's business (bench/).
//
// Usage:
//
//	go run ./scripts/benchdiff -baseline BENCH_parallel_quick.json -current bench_parallel_quick.json
//
// Records are matched by (experiment, case). A record present in one file
// but not the other is a failure — silently gaining or losing a sweep case
// is itself a regression. Exit status 1 lists every problem found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline JSON (required)")
		currentPath  = flag.String("current", "", "freshly produced dtabench -json output (required)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}

	problems, err := Diff(*baselinePath, *currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %s vs %s: %d problem(s)\n", *currentPath, *baselinePath, len(problems))
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %s matches %s\n", *currentPath, *baselinePath)
}

// Diff loads both files and returns one message per mismatch (empty on a
// clean comparison).
func Diff(baselinePath, currentPath string) ([]string, error) {
	base, err := load(baselinePath)
	if err != nil {
		return nil, err
	}
	cur, err := load(currentPath)
	if err != nil {
		return nil, err
	}
	return compare(base, cur), nil
}

func load(path string) ([]experiments.BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []experiments.BenchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func key(r experiments.BenchRecord) string { return r.Experiment + "/" + r.Case }

func compare(base, cur []experiments.BenchRecord) []string {
	var problems []string
	baseBy := map[string]experiments.BenchRecord{}
	for _, r := range base {
		baseBy[key(r)] = r
	}
	curBy := map[string]experiments.BenchRecord{}
	for _, r := range cur {
		curBy[key(r)] = r
	}
	for _, b := range base {
		if _, ok := curBy[key(b)]; !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from current run", key(b)))
		}
	}
	for _, c := range cur {
		b, ok := baseBy[key(c)]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: not in baseline", key(c)))
			continue
		}
		problems = append(problems, compareRecord(b, c)...)
	}
	return problems
}

// relTol is the quality-field tolerance: the sweeps are deterministic, so
// improvement and ratio may differ only by float round-off.
const relTol = 1e-9

func compareRecord(b, c experiments.BenchRecord) []string {
	var problems []string
	k := key(b)
	if b.WhatIfCalls != c.WhatIfCalls {
		problems = append(problems, fmt.Sprintf("%s: whatIfCalls %d, baseline %d (exact match required)", k, c.WhatIfCalls, b.WhatIfCalls))
	}
	if b.DerivedEvals != c.DerivedEvals {
		problems = append(problems, fmt.Sprintf("%s: derivedEvals %d, baseline %d (exact match required)", k, c.DerivedEvals, b.DerivedEvals))
	}
	if b.Events != c.Events {
		problems = append(problems, fmt.Sprintf("%s: events %d, baseline %d (exact match required)", k, c.Events, b.Events))
	}
	if !closeRel(b.ImprovementPct, c.ImprovementPct) {
		problems = append(problems, fmt.Sprintf("%s: improvementPct %.9f, baseline %.9f", k, c.ImprovementPct, b.ImprovementPct))
	}
	if !closeRel(b.Ratio, c.Ratio) {
		problems = append(problems, fmt.Sprintf("%s: ratio %.9f, baseline %.9f", k, c.Ratio, b.Ratio))
	}
	return problems
}

// closeRel reports whether two quality values agree to float round-off.
func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}
