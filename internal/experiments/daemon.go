package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/datagen/setquery"
	"repro/internal/service"
)

// DaemonRow is one trace epoch of the continuous-tuning sweep: the chunk
// fed, the drift score it left the daemon at, and — when the epoch
// re-tuned — the trigger, path, and delta shape. The sweep's claims are
// structural and asserted, not just recorded: stable epochs must score
// under the threshold and trigger zero re-tunes, the reweight epoch must
// be answered through the revise path, the template-shift epoch through a
// fresh pass, and the whole delta sequence must be byte-identical across a
// mid-scenario restart at a different parallelism level.
type DaemonRow struct {
	Case        string        // initial | stable-1 | stable-2 | reweight | shift | feedback
	Wall        time.Duration // epoch wall clock (ingest + any re-tune)
	ChunkEvents int64         // raw events this chunk
	Events      int64         // cumulative raw events
	Score       float64       // drift score at the chunk boundary
	Retuned     bool
	Trigger     string // initial | drift | feedback ("" when not re-tuned)
	Path        string // revise | fresh ("" when not re-tuned)
	Churn       int    // creates + drops of the emitted delta
	WhatIfCalls int64  // optimizer calls the re-tune issued
	Improvement float64
}

// daemonThreshold is the sweep's drift threshold. Stable epochs replay the
// same template mix and score ≤ ~0.02 (exactly 0 when the epoch length is a
// multiple of the template count); the injected reweight and shift epochs
// score ≥ 0.15 at both Quick and Default scale. 0.1 splits the two regimes
// with margin on each side.
const daemonThreshold = 0.1

// daemonChunks renders the sweep's drifting SYNT trace once, so every leg
// (and the restarted leg) streams byte-identical chunks. The first four
// chunks share the template universe: "initial" and the two "stable"
// chunks draw the full template set from the same seed (the stable chunks
// only rescale the distribution), and "reweight" draws a prefix subset —
// setquery templates are generated sequentially, so a smaller count under
// the same seed yields a strict prefix, concentrating weight on known
// templates without introducing new ones (the revise-path case). "shift"
// draws from a different seed: new templates the retained pool has never
// costed (the fresh-path case).
func daemonChunks(cfg Config) ([]struct{ name, body string }, error) {
	cat := setquery.Catalog(cfg.SYNT1Rows)
	render := func(events, tcount int, seed int64) (string, error) {
		var b strings.Builder
		if _, err := io.Copy(&b, setquery.Trace(cat, events, tcount, seed)); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	quarter := cfg.SYNT1Templ / 4
	if quarter < 1 {
		quarter = 1
	}
	specs := []struct {
		name   string
		events int
		tcount int
		seed   int64
	}{
		{"initial", cfg.SYNT1Events, cfg.SYNT1Templ, cfg.Seed},
		{"stable-1", cfg.SYNT1Events / 2, cfg.SYNT1Templ, cfg.Seed},
		{"stable-2", cfg.SYNT1Events / 2, cfg.SYNT1Templ, cfg.Seed},
		{"reweight", cfg.SYNT1Events / 2, quarter, cfg.Seed},
		{"shift", cfg.SYNT1Events / 2, cfg.SYNT1Templ, cfg.Seed + 1000},
	}
	out := make([]struct{ name, body string }, 0, len(specs))
	for _, s := range specs {
		body, err := render(s.events, s.tcount, s.seed)
		if err != nil {
			return nil, err
		}
		out = append(out, struct{ name, body string }{s.name, body})
	}
	return out, nil
}

// daemonLeg runs the whole epoch sequence against a fresh manager and
// returns the per-epoch rows plus the daemon's delta history as canonical
// JSON (the determinism fingerprint). With restartAfter ≥ 0 the manager is
// torn down after that chunk index and the daemon resumed from stateDir in
// a fresh manager over a fresh server — the crash-recovery leg.
func daemonLeg(cfg Config, chunks []struct{ name, body string }, parallelism, restartAfter int, stateDir string) ([]DaemonRow, []byte, error) {
	newManager := func() (*service.Manager, error) {
		srv, err := newSYNT1Server(cfg.SYNT1Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m := service.NewManager(2)
		if err := m.Register(&service.Backend{Name: "synt1", Tuner: srv}); err != nil {
			return nil, err
		}
		if stateDir != "" {
			if err := m.SetStateDir(stateDir); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	m, err := newManager()
	if err != nil {
		return nil, nil, err
	}
	srvBytes := int64(cfg.StorageX * float64(setquery.Catalog(cfg.SYNT1Rows).Bytes()))
	d, err := m.CreateDaemon(service.DaemonRequest{
		Database: "synt1",
		Options: service.CreateOptions{
			Features:    "IDX",
			StorageMB:   srvBytes >> 20,
			Parallelism: parallelism,
			Derive:      cfg.Derive,
		},
		Drift: service.DaemonDriftOptions{Threshold: daemonThreshold},
	})
	if err != nil {
		return nil, nil, err
	}
	id := d.ID()

	var rows []DaemonRow
	ctx := context.Background()
	for i, c := range chunks {
		start := time.Now()
		res, err := m.IngestTrace(ctx, id, strings.NewReader(c.body))
		wall := time.Since(start)
		if err != nil {
			return rows, nil, fmt.Errorf("daemon %s epoch: %w", c.name, err)
		}
		row := DaemonRow{
			Case:        c.name,
			Wall:        wall,
			ChunkEvents: res.ChunkEvents,
			Events:      res.Events,
			Score:       res.Score,
			Retuned:     res.Retuned,
			Trigger:     res.Trigger,
			Path:        res.Path,
		}
		if res.Delta != nil {
			row.Churn = res.Delta.Churn
			row.WhatIfCalls = res.Delta.WhatIfCalls
			row.Improvement = res.Delta.Improvement
		}
		rows = append(rows, row)

		if i == restartAfter {
			// Crash: drop the manager, rebuild server + manager, resume the
			// daemon purely from its persisted compressor snapshot, feedback
			// state, and pool file.
			m, err = newManager()
			if err != nil {
				return rows, nil, err
			}
			resumed, err := m.ResumeDaemons()
			if err != nil {
				return rows, nil, fmt.Errorf("daemon resume after %s: %w", c.name, err)
			}
			if len(resumed) != 1 || resumed[0].ID() != id {
				return rows, nil, fmt.Errorf("daemon resume after %s: got %d daemons, want %s", c.name, len(resumed), id)
			}
		}
	}

	// DBA-in-the-loop epoch: accept the top proposed structure, veto the
	// runner-up, and force a re-tune under the updated feedback.
	dm, ok := m.GetDaemon(id)
	if !ok {
		return rows, nil, fmt.Errorf("daemon %s vanished", id)
	}
	proposed := dm.Snapshot().Proposed
	if len(proposed) == 0 {
		return rows, nil, fmt.Errorf("daemon has no outstanding proposal to give feedback on")
	}
	fb := service.FeedbackRequest{Accept: []string{proposed[0].Key}, Retune: true}
	if len(proposed) > 1 {
		fb.Veto = []string{proposed[1].Key}
	}
	start := time.Now()
	fres, err := m.Feedback(ctx, id, fb)
	wall := time.Since(start)
	if err != nil {
		return rows, nil, fmt.Errorf("daemon feedback epoch: %w", err)
	}
	snap := dm.Snapshot()
	rows = append(rows, DaemonRow{
		Case:        "feedback",
		Wall:        wall,
		Events:      snap.Events,
		Score:       snap.DriftScore,
		Retuned:     true,
		Trigger:     fres.Delta.Trigger,
		Path:        fres.Delta.Path,
		Churn:       fres.Delta.Churn,
		WhatIfCalls: fres.Delta.WhatIfCalls,
		Improvement: fres.Delta.Improvement,
	})

	// The accepted structure must be pinned and the vetoed one dropped, not
	// re-proposed — the feedback contract.
	for _, e := range append(fres.Delta.Create, fres.Delta.Drop...) {
		if e.Key == fb.Accept[0] {
			return rows, nil, fmt.Errorf("accepted structure %s churned in the feedback delta", e.Key)
		}
	}
	if len(fb.Veto) > 0 {
		for _, e := range fres.Delta.Create {
			if e.Key == fb.Veto[0] {
				return rows, nil, fmt.Errorf("vetoed structure %s re-proposed", e.Key)
			}
		}
	}

	deltas, err := json.Marshal(dm.Deltas(0))
	if err != nil {
		return rows, nil, err
	}
	return rows, deltas, nil
}

// DaemonSweep measures the continuous tuning daemon on a drifting SYNT
// trace (§5's "tuning as an ongoing activity" read of the paper's server-
// side deployment): six epochs — initial tune, two stable epochs, a
// reweight epoch, a template-shift epoch, and a DBA feedback epoch — with
// the drift decisions asserted, then the identical scenario replayed with
// a mid-scenario restart at a different parallelism level, which must
// reproduce the delta sequence byte for byte.
func DaemonSweep(cfg Config) ([]DaemonRow, error) {
	chunks, err := daemonChunks(cfg)
	if err != nil {
		return nil, err
	}

	rows, deltasA, err := daemonLeg(cfg, chunks, 1, -1, "")
	if err != nil {
		return rows, err
	}

	// Structural assertions on the primary leg.
	byCase := map[string]DaemonRow{}
	for _, r := range rows {
		byCase[r.Case] = r
	}
	if r := byCase["initial"]; !r.Retuned || r.Trigger != service.TriggerInitial {
		return rows, fmt.Errorf("initial epoch did not run the initial tune: %+v", r)
	}
	for _, c := range []string{"stable-1", "stable-2"} {
		if r := byCase[c]; r.Retuned || r.Score >= daemonThreshold {
			return rows, fmt.Errorf("stable epoch %s re-tuned or scored %.3f ≥ %.2f", c, r.Score, daemonThreshold)
		}
	}
	if r := byCase["reweight"]; !r.Retuned || r.Trigger != service.TriggerDrift || r.Path != service.PathRevise {
		return rows, fmt.Errorf("reweight epoch not answered by a revise-path drift re-tune: %+v", r)
	}
	if r := byCase["shift"]; !r.Retuned || r.Trigger != service.TriggerDrift || r.Path != service.PathFresh {
		return rows, fmt.Errorf("shift epoch not answered by a fresh-path drift re-tune: %+v", r)
	}
	if r := byCase["feedback"]; r.Trigger != service.TriggerFeedback {
		return rows, fmt.Errorf("feedback epoch trigger = %q", r.Trigger)
	}

	// Determinism leg: restart after the stable-1 epoch, parallelism 4.
	stateDir, err := os.MkdirTemp("", "dta-daemon-*")
	if err != nil {
		return rows, err
	}
	defer os.RemoveAll(stateDir)
	_, deltasB, err := daemonLeg(cfg, chunks, 4, 1, stateDir)
	if err != nil {
		return rows, fmt.Errorf("restart leg: %w", err)
	}
	if !bytes.Equal(deltasA, deltasB) {
		return rows, fmt.Errorf("delta sequence not reproduced across restart + parallelism change:\n%s\nvs\n%s", deltasA, deltasB)
	}
	return rows, nil
}

// DaemonString renders the sweep as a table.
func DaemonString(rows []DaemonRow) string {
	var body [][]string
	for _, r := range rows {
		retuned := "-"
		if r.Retuned {
			retuned = r.Trigger + "/" + r.Path
		}
		body = append(body, []string{
			r.Case,
			r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.3f", r.Score),
			retuned,
			fmt.Sprintf("%d", r.Churn),
			fmt.Sprintf("%d", r.WhatIfCalls),
			pct1(r.Improvement),
		})
	}
	return renderTable("Continuous-tuning daemon sweep (drifting SYNT trace; restart leg must reproduce deltas byte-identically)",
		[]string{"Epoch", "Wall", "Events", "Drift", "Retune", "Churn", "WhatIfCalls", "Improvement"}, body)
}

// SummarizeDaemon flattens the sweep for the -json artifact. The
// deterministic fields ride in the gate-exact columns: cumulative events in
// Events, delta churn in DerivedEvals, re-tune optimizer calls in
// WhatIfCalls (all integer-exact in the benchdiff gate), and the drift
// score in Ratio (1e-9 relative tolerance) — so a stable epoch growing a
// re-tune, a re-tune changing its churn, or the drift scorer moving at all
// each fail the gate exactly.
func SummarizeDaemon(rows []DaemonRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "daemon",
			Case:           r.Case,
			WhatIfCalls:    r.WhatIfCalls,
			ImprovementPct: 100 * r.Improvement,
			Events:         r.Events,
			Ratio:          r.Score,
			DerivedEvals:   int64(r.Churn),
		})
	}
	return out
}
