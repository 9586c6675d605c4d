package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/setquery"
	"repro/internal/datagen/tpch"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// ReviseRow is one constraint revision of the interactive-tuning sweep: the
// revision's search-only wall clock and what-if call count next to a fresh
// full run under the same constraints. Revision and fresh run must agree on
// the recommendation and improvement — the sweep fails on any drift — so
// the row measures only what splitting costing from search saves.
type ReviseRow struct {
	DB          string        // synt1 | tpch
	Case        string        // same | storage-tight | storage-half | storage-double | veto-top | reweight
	WallRevise  time.Duration // core.Revise against the retained pool, warm server
	WallFull    time.Duration // fresh full run under the same constraints, fresh server
	ReviseCalls int64         // what-if calls the revision issued (pool misses)
	FullCalls   int64         // what-if calls of the fresh full run
	Improvement float64
	Fingerprint string // chosen structures, order-sensitive
}

// reviseSpeedup is the full-run wall clock over the revision wall clock.
func reviseSpeedup(r ReviseRow) float64 {
	if r.WallRevise <= 0 {
		return 0
	}
	return float64(r.WallFull) / float64(r.WallRevise)
}

// reviseCase is one constraint mutation the sweep replays against the pool.
type reviseCase struct {
	name   string
	mutate func(core.Constraints, *core.Recommendation, *workload.Workload) core.Constraints
}

// reviseCases are the constraint changes a DBA iterates through in the
// paper's interactive scenario: tightening and relaxing the storage bound,
// vetoing the top recommended structure, and reweighting a workload slice.
// "same" replays the original constraints and must reproduce the original
// recommendation with zero calls.
func reviseCases() []reviseCase {
	return []reviseCase{
		{"same", func(c core.Constraints, _ *core.Recommendation, _ *workload.Workload) core.Constraints {
			return c
		}},
		{"storage-tight", func(c core.Constraints, _ *core.Recommendation, _ *workload.Workload) core.Constraints {
			c.StorageBudget = c.StorageBudget * 4 / 5
			return c
		}},
		{"storage-half", func(c core.Constraints, _ *core.Recommendation, _ *workload.Workload) core.Constraints {
			c.StorageBudget /= 2
			return c
		}},
		{"storage-double", func(c core.Constraints, _ *core.Recommendation, _ *workload.Workload) core.Constraints {
			c.StorageBudget *= 2
			return c
		}},
		{"veto-top", func(c core.Constraints, rec *core.Recommendation, _ *workload.Workload) core.Constraints {
			if len(rec.NewStructures) > 0 {
				c.Vetoed = append(append([]string(nil), c.Vetoed...), rec.NewStructures[0].Key())
			}
			return c
		}},
		{"reweight", func(c core.Constraints, _ *core.Recommendation, w *workload.Workload) core.Constraints {
			if w.Len() == 0 {
				return c
			}
			m := make(map[string]float64, len(c.SliceWeights)+1)
			for k, v := range c.SliceWeights {
				m[k] = v
			}
			m[w.Events[0].Signature()] = 4
			c.SliceWeights = m
			return c
		}},
	}
}

// ReviseSweep measures interactive session revision (the costing/search
// split): each database is tuned once in full with the costed pool
// retained, then every constraint change in reviseCases is answered twice —
// by core.Revise against the pool on the still-warm server (the service's
// PATCH /sessions/{id} path), and by a fresh full run on a freshly built
// server under the identical constraints (what a DBA without the pool would
// pay, statistics creation included). The two recommendations and
// improvements must match exactly; any drift is returned as an error, not a
// row. Derivation is forced on — pool facts are what let a changed storage
// bound reach new configurations without optimizer calls — so revisions are
// expected to report zero what-if calls.
func ReviseSweep(cfg Config) ([]ReviseRow, error) {
	type target struct {
		name  string
		build func() (*whatif.Server, *workload.Workload, error)
	}
	targets := []target{
		{"synt1", func() (*whatif.Server, *workload.Workload, error) {
			srv, err := newSYNT1Server(cfg.SYNT1Rows, cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			cat := setquery.Catalog(cfg.SYNT1Rows)
			return srv, setquery.Workload(cat, cfg.SYNT1Events, cfg.SYNT1Templ, cfg.Seed), nil
		}},
		{"tpch", func() (*whatif.Server, *workload.Workload, error) {
			srv, _, err := newTPCHServer(cfg.TPCHSF, cfg.Seed)
			return srv, tpch.Workload(), err
		}},
	}

	var rows []ReviseRow
	for _, tg := range targets {
		warm, w, err := tg.build()
		if err != nil {
			return nil, err
		}
		opts := cfg.tuneOpts(warm, core.FeatureIndexes)
		opts.SkipReports = true
		opts.CompressWorkload = true
		var pool *core.CostedPool
		opts.PoolSink = func(p *core.CostedPool) { pool = p }
		start := time.Now()
		parent, err := core.Tune(warm, w, opts)
		parentWall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("revise %s: full run: %w", tg.name, err)
		}
		if pool == nil {
			return nil, fmt.Errorf("revise %s: full run sealed no pool", tg.name)
		}
		cons := opts.SearchConstraints()

		for _, rc := range reviseCases() {
			rcons := rc.mutate(cons, parent, w)
			start = time.Now()
			rev, err := core.Revise(context.Background(), warm, pool, rcons, core.Options{})
			revWall := time.Since(start)
			if err != nil {
				return rows, fmt.Errorf("revise %s/%s: %w", tg.name, rc.name, err)
			}

			// The fresh-run side: "same" is the parent run itself; every
			// other case pays a full pipeline on a fresh server.
			fullWall, fullCalls, fullRec := parentWall, parent.WhatIfCalls, parent
			if rc.name != "same" {
				fsrv, fw, err := tg.build()
				if err != nil {
					return rows, err
				}
				fopts := cfg.tuneOpts(fsrv, core.FeatureIndexes)
				fopts.SkipReports = true
				fopts.CompressWorkload = true
				fopts.StorageBudget = rcons.StorageBudget
				fopts.Aligned = rcons.Aligned
				fopts.UserConfig = rcons.Pinned
				fopts.Vetoed = rcons.Vetoed
				fopts.SliceWeights = rcons.SliceWeights
				start = time.Now()
				fullRec, err = core.Tune(fsrv, fw, fopts)
				fullWall = time.Since(start)
				if err != nil {
					return rows, fmt.Errorf("revise %s/%s: fresh run: %w", tg.name, rc.name, err)
				}
				fullCalls = fullRec.WhatIfCalls
			}

			if recFingerprint(rev) != recFingerprint(fullRec) || rev.Improvement != fullRec.Improvement {
				return rows, fmt.Errorf(
					"revision drift: %s/%s revision disagrees with a fresh full run (improvement %.6f vs %.6f):\n%s\nvs\n%s",
					tg.name, rc.name, rev.Improvement, fullRec.Improvement,
					recFingerprint(rev), recFingerprint(fullRec))
			}
			rows = append(rows, ReviseRow{
				DB:          tg.name,
				Case:        rc.name,
				WallRevise:  revWall,
				WallFull:    fullWall,
				ReviseCalls: rev.WhatIfCalls,
				FullCalls:   fullCalls,
				Improvement: rev.Improvement,
				Fingerprint: recFingerprint(rev),
			})
		}
	}
	return rows, nil
}

// ReviseString renders the sweep with the per-case revision speedup.
func ReviseString(rows []ReviseRow) string {
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.DB,
			r.Case,
			r.WallRevise.Round(time.Millisecond).String(),
			r.WallFull.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", reviseSpeedup(r)),
			fmt.Sprintf("%d", r.ReviseCalls),
			fmt.Sprintf("%d", r.FullCalls),
			fmt.Sprintf("%.1f%%", 100*r.Improvement),
		})
	}
	return renderTable("Session-revision sweep (revision vs fresh full run, identical recommendations required)",
		[]string{"DB", "Case", "WallRevise", "WallFull", "Speedup", "ReviseCalls", "FullCalls", "Improvement"}, body)
}

// SummarizeRevise flattens the sweep for the -json artifact: two records
// per case — the revision and the fresh full run — matched by the
// "<db>-<case>/revise|full" key so the CI gate locks both call counts (a
// revision regressing from zero calls fails exactly) while wall clocks stay
// under the machine tolerance.
func SummarizeRevise(rows []ReviseRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out,
			BenchRecord{
				Experiment:     "revise",
				Case:           r.DB + "-" + r.Case + "/revise",
				WhatIfCalls:    r.ReviseCalls,
				ImprovementPct: 100 * r.Improvement,
			},
			BenchRecord{
				Experiment:     "revise",
				Case:           r.DB + "-" + r.Case + "/full",
				WhatIfCalls:    r.FullCalls,
				ImprovementPct: 100 * r.Improvement,
			})
	}
	return out
}
