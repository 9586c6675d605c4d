package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/tpch"
)

// ParallelRow is one level of the parallelism sweep: the full advisor run on
// the TPC-H demonstration database at Options.Parallelism = P. Because the
// cost cache is single-flight and the greedy reductions are deterministic,
// every row must report the same recommendation (Improvement) and the same
// WhatIfCalls — only the wall clock may change.
type ParallelRow struct {
	Parallelism  int
	Wall         time.Duration
	WhatIfCalls  int64
	DerivedEvals int64
	Improvement  float64
	Fingerprint  string // chosen structures, order-sensitive
}

// ParallelSweep tunes the same TPC-H workload once per parallelism level,
// each against a fresh server (so statistics and caches never carry over),
// and reports wall clock, exact what-if call counts, and the recommendation
// fingerprint per level. It is the measurement behind the claim that the
// parallel pipeline is a pure latency optimization: any fingerprint or
// call-count drift across levels is returned as an error, not a row.
func ParallelSweep(cfg Config, levels []int) ([]ParallelRow, error) {
	rows := make([]ParallelRow, 0, len(levels))
	for _, p := range levels {
		srv, _, err := newTPCHServer(cfg.TPCHSF, cfg.Seed)
		if err != nil {
			return nil, err
		}
		w := tpch.Workload()
		opts := cfg.tuneOpts(srv, core.FeatureAll)
		opts.Parallelism = p
		start := time.Now()
		rec, err := core.Tune(srv, w, opts)
		if err != nil {
			return nil, fmt.Errorf("parallelism %d: %w", p, err)
		}
		fp := ""
		for _, st := range rec.NewStructures {
			fp += st.Key() + "\n"
		}
		rows = append(rows, ParallelRow{
			Parallelism:  p,
			Wall:         time.Since(start),
			WhatIfCalls:  rec.WhatIfCalls,
			DerivedEvals: rec.DerivedEvals,
			Improvement:  rec.Improvement,
			Fingerprint:  fp,
		})
	}
	for _, r := range rows[1:] {
		if r.Fingerprint != rows[0].Fingerprint || r.WhatIfCalls != rows[0].WhatIfCalls {
			return rows, fmt.Errorf(
				"determinism violated: parallelism %d produced %d what-if calls and a different recommendation than parallelism %d (%d calls)",
				r.Parallelism, r.WhatIfCalls, rows[0].Parallelism, rows[0].WhatIfCalls)
		}
	}
	return rows, nil
}

// ParallelString renders the sweep with per-level speedup over the first
// (slowest-expected) level.
func ParallelString(rows []ParallelRow) string {
	var body [][]string
	for _, r := range rows {
		speedup := "1.00x"
		if r.Wall > 0 && len(rows) > 0 && rows[0].Wall > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(rows[0].Wall)/float64(r.Wall))
		}
		body = append(body, []string{
			fmt.Sprintf("%d", r.Parallelism),
			r.Wall.Round(time.Millisecond).String(),
			speedup,
			fmt.Sprintf("%d", r.WhatIfCalls),
			fmt.Sprintf("%.1f%%", 100*r.Improvement),
		})
	}
	return renderTable("Parallel tuning sweep (TPC-H, identical recommendations required)",
		[]string{"Parallelism", "Wall", "Speedup", "WhatIfCalls", "Improvement"}, body)
}

// SummarizeParallel flattens the sweep for the -json artifact: one record
// per level, Case "p=N".
func SummarizeParallel(rows []ParallelRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "parallel",
			Case:           fmt.Sprintf("p=%d", r.Parallelism),
			WhatIfCalls:    r.WhatIfCalls,
			DerivedEvals:   r.DerivedEvals,
			ImprovementPct: 100 * r.Improvement,
		})
	}
	return out
}
