package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/derive"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// deriveOracle names the sweep's reference leg: the same advisor run over a
// tuner whose plan skeletons are hidden, so every evaluation is a real call.
const deriveOracle = "real-call"

// realCallTuner hides the backend's AlternativesTuner: core then runs
// without a derivation engine — the oracle derived runs are compared to.
type realCallTuner struct{ core.Tuner }

// DeriveRow is one (workload, mode) leg of the cost-derivation sweep: the
// full advisor run with Options.Derive = Mode, or over the real-call oracle.
// Because derived costs are exact (replay performs the optimizer's own
// arithmetic over the alternatives the configuration makes available),
// every leg of a workload must report the same recommendation and
// improvement — only the what-if call count and the wall clock may change.
type DeriveRow struct {
	Workload     string // "synt1" (single-table, indexes only) or "tpch" (joins, all features)
	Mode         string
	Wall         time.Duration
	WhatIfCalls  int64
	DerivedEvals int64
	Improvement  float64
	Fingerprint  string // chosen structures, order-sensitive
	// Fallbacks breaks down, by reason (and query shape: "-join" suffixed
	// keys are multi-scope events), the real optimizer calls behind
	// derivation: skeleton fetches and evaluations replay could not answer.
	Fallbacks map[string]int64
}

// DeriveSweep tunes two workloads once per leg (real-call oracle, on,
// verify), each against a fresh server so statistics and cost caches never
// carry over, and reports the exact optimizer call count and recommendation
// per leg. SYNT1 exercises flat single-scope skeleton replay; TPC-H
// exercises composed join-skeleton replay (with views and partitioning
// enabled, matching the parallel sweep so call counts line up). It is the
// measurement behind the claim that cost derivation is a pure call-count
// optimization: any drift in the recommendation fingerprint or improvement
// relative to the workload's real-call run is returned as an error, not a
// row. The verify legs additionally cross-check every derived cost against
// a real what-if call inside the advisor, so a clean run is itself the
// equivalence proof.
func DeriveSweep(cfg Config) ([]DeriveRow, error) {
	legs := []struct {
		workload string
		setup    func() (*whatif.Server, *workload.Workload, core.Options, error)
	}{
		{"synt1", func() (*whatif.Server, *workload.Workload, core.Options, error) {
			srv, err := newSYNT1Server(cfg.SYNT1Rows, cfg.Seed)
			if err != nil {
				return nil, nil, core.Options{}, err
			}
			cat := setquery.Catalog(cfg.SYNT1Rows)
			w := setquery.Workload(cat, cfg.SYNT1Events, cfg.SYNT1Templ, cfg.Seed)
			opts := cfg.tuneOpts(srv, core.FeatureIndexes)
			opts.SkipReports = true
			opts.CompressWorkload = true
			return srv, w, opts, nil
		}},
		{"tpch", func() (*whatif.Server, *workload.Workload, core.Options, error) {
			srv, _, err := newTPCHServer(cfg.TPCHSF, cfg.Seed)
			if err != nil {
				return nil, nil, core.Options{}, err
			}
			return srv, tpch.Workload(), cfg.tuneOpts(srv, core.FeatureAll), nil
		}},
	}

	var rows []DeriveRow
	for _, leg := range legs {
		var oracle *DeriveRow
		for _, mode := range []string{deriveOracle, "on", "verify"} {
			srv, w, opts, err := leg.setup()
			if err != nil {
				return nil, err
			}
			var t core.Tuner = srv
			if mode == deriveOracle {
				t = realCallTuner{srv}
			} else {
				opts.Derive = derive.Mode(mode)
			}
			start := time.Now()
			rec, err := core.Tune(t, w, opts)
			if err != nil {
				return nil, fmt.Errorf("%s/derive=%s: %w", leg.workload, mode, err)
			}
			rows = append(rows, DeriveRow{
				Workload:     leg.workload,
				Mode:         mode,
				Wall:         time.Since(start),
				WhatIfCalls:  rec.WhatIfCalls,
				DerivedEvals: rec.DerivedEvals,
				Improvement:  rec.Improvement,
				Fingerprint:  recFingerprint(rec),
				Fallbacks:    rec.DeriveFallbacks,
			})
			r := &rows[len(rows)-1]
			if mode == deriveOracle {
				oracle = r
				continue
			}
			if r.Fingerprint != oracle.Fingerprint || r.Improvement != oracle.Improvement {
				return rows, fmt.Errorf(
					"derivation drift: %s/derive=%s recommends differently than the real-call oracle (improvement %.6f vs %.6f):\n%s\nvs\n%s",
					leg.workload, r.Mode, r.Improvement, oracle.Improvement, r.Fingerprint, oracle.Fingerprint)
			}
		}
	}
	return rows, nil
}

// deriveRatio is the what-if call reduction factor of one row over its
// workload's real-call baseline row.
func deriveRatio(rows []DeriveRow, r DeriveRow) float64 {
	if r.WhatIfCalls <= 0 {
		return 0
	}
	for _, b := range rows {
		if b.Workload == r.Workload && b.Mode == deriveOracle {
			return float64(b.WhatIfCalls) / float64(r.WhatIfCalls)
		}
	}
	return 0
}

// DeriveString renders the sweep with per-mode call reduction over each
// workload's real-call baseline.
func DeriveString(rows []DeriveRow) string {
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Workload,
			r.Mode,
			r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.WhatIfCalls),
			fmt.Sprintf("%d", r.DerivedEvals),
			fmt.Sprintf("%.1fx", deriveRatio(rows, r)),
			fmt.Sprintf("%.1f%%", 100*r.Improvement),
			fallbackString(r.Fallbacks),
		})
	}
	return renderTable("Cost-derivation sweep (SYNT1 + TPC-H, identical recommendations required)",
		[]string{"Workload", "Derive", "Wall", "WhatIfCalls", "Derived", "CallReduction", "Improvement", "Fallbacks"}, body)
}

// fallbackString renders a per-reason fallback breakdown as
// "atom:12 dml:3", reasons sorted, or "-" when there is none.
func fallbackString(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// SummarizeDerive flattens the sweep for the -json artifact: one record per
// leg, Case "<workload>/derive=<mode>", Ratio carrying the call reduction
// factor over that workload's real-call row.
func SummarizeDerive(rows []DeriveRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "derive",
			Case:           r.Workload + "/derive=" + r.Mode,
			WhatIfCalls:    r.WhatIfCalls,
			DerivedEvals:   r.DerivedEvals,
			ImprovementPct: 100 * r.Improvement,
			Ratio:          deriveRatio(rows, r),
		})
	}
	return out
}
