package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datagen/setquery"
	"repro/internal/workload"
)

// ingestParityMax caps the sweep sizes that also run the batch
// (materialize-then-compress) leg for a recommendation-parity check; above
// it the batch leg would dominate the sweep's wall clock and memory for no
// extra signal — the streaming and batch compressors are the same code fed
// in the same order.
const ingestParityMax = 100000

// IngestRow is one size level of the streaming-ingestion scale sweep: a
// synthetic SYNT1 trace of Events statements streamed through the online
// compressor and tuned, with the ingest wall clock, the bytes allocated
// during ingestion (runtime.MemStats TotalAlloc delta — the whole point is
// that this stays bounded by templates × MaxPerTemplate state, not O(events)),
// the compression achieved, and the tuning outcome. Rows at or below the
// parity threshold also tune the same statements through the batch path and
// require an identical recommendation.
type IngestRow struct {
	Events          int
	Bytes           int64
	IngestWall      time.Duration
	AllocMB         float64
	Templates       int
	Representatives int
	Ratio           float64
	TuneWall        time.Duration
	WhatIfCalls     int64
	Improvement     float64
	ParityChecked   bool
}

// IngestSweep streams synthetic SYNT1 traces of the given sizes through
// StreamTrace → Compressor → Tune, one fresh server per size so statistics
// and cost caches never carry over. For sizes at or below the parity
// threshold it also materializes the identical statements and tunes them
// through the batch compression path; any drift in the recommendation
// fingerprint, improvement, or what-if call count is returned as an error.
// A compressor retaining more than templates × MaxPerTemplate representatives
// is likewise an error — that bound is the sweep's reason to exist.
func IngestSweep(cfg Config, sizes []int) ([]IngestRow, error) {
	rows := make([]IngestRow, 0, len(sizes))
	for _, n := range sizes {
		srv, err := newSYNT1Server(cfg.SYNT1Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cat := setquery.Catalog(cfg.SYNT1Rows)
		trace := setquery.Trace(cat, n, cfg.SYNT1Templ, cfg.Seed)

		comp := workload.NewCompressor(workload.CompressOptions{})
		cr := &countingTraceReader{r: trace}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ingestStart := time.Now()
		err = workload.StreamTrace(cr, func(e *workload.Event, _ int) error { return comp.Add(e) })
		ingestWall := time.Since(ingestStart)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("ingest n=%d: %w", n, err)
		}
		if bound := comp.Templates() * 4; comp.Len() > bound {
			return nil, fmt.Errorf("ingest n=%d: compressor retained %d representatives, bound is %d (templates %d × 4)",
				n, comp.Len(), bound, comp.Templates())
		}

		w := comp.Workload()
		opts := cfg.tuneOpts(srv, core.FeatureIndexes)
		opts.SkipReports = true
		opts.Ingest = &core.IngestStats{Events: comp.Events(), Bytes: cr.n, Templates: comp.Templates()}
		tuneStart := time.Now()
		rec, err := core.Tune(srv, w, opts)
		if err != nil {
			return nil, fmt.Errorf("tune n=%d: %w", n, err)
		}
		row := IngestRow{
			Events:          n,
			Bytes:           cr.n,
			IngestWall:      ingestWall,
			AllocMB:         float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			Templates:       comp.Templates(),
			Representatives: w.Len(),
			Ratio:           comp.Ratio(),
			TuneWall:        time.Since(tuneStart),
			WhatIfCalls:     rec.WhatIfCalls,
			Improvement:     rec.Improvement,
		}

		if n <= ingestParityMax {
			if err := ingestParity(cfg, n, rec); err != nil {
				return rows, err
			}
			row.ParityChecked = true
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ingestParity tunes the identical statement sequence through the batch path
// (materialized workload, advisor-side compression) on a fresh server and
// compares the recommendation against the streaming run's.
func ingestParity(cfg Config, n int, streamRec *core.Recommendation) error {
	srv, err := newSYNT1Server(cfg.SYNT1Rows, cfg.Seed)
	if err != nil {
		return err
	}
	cat := setquery.Catalog(cfg.SYNT1Rows)
	w := setquery.Workload(cat, n, cfg.SYNT1Templ, cfg.Seed)
	opts := cfg.tuneOpts(srv, core.FeatureIndexes)
	opts.SkipReports = true
	opts.CompressWorkload = true
	rec, err := core.Tune(srv, w, opts)
	if err != nil {
		return fmt.Errorf("parity tune n=%d: %w", n, err)
	}
	if got, want := recFingerprint(streamRec), recFingerprint(rec); got != want {
		return fmt.Errorf("parity violated at n=%d: streaming and batch paths recommend different structures:\nstream:\n%s\nbatch:\n%s", n, got, want)
	}
	if streamRec.Improvement != rec.Improvement {
		return fmt.Errorf("parity violated at n=%d: improvement %.6f (stream) vs %.6f (batch)", n, streamRec.Improvement, rec.Improvement)
	}
	if streamRec.WhatIfCalls != rec.WhatIfCalls {
		return fmt.Errorf("parity violated at n=%d: what-if calls %d (stream) vs %d (batch)", n, streamRec.WhatIfCalls, rec.WhatIfCalls)
	}
	return nil
}

// recFingerprint renders the recommendation's structures, order-sensitive.
func recFingerprint(rec *core.Recommendation) string {
	fp := ""
	for _, st := range rec.NewStructures {
		fp += st.Key() + "\n"
	}
	return fp
}

// countingTraceReader counts bytes drained from the synthetic trace.
type countingTraceReader struct {
	r interface{ Read([]byte) (int, error) }
	n int64
}

func (c *countingTraceReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// IngestString renders the sweep.
func IngestString(rows []IngestRow) string {
	var body [][]string
	for _, r := range rows {
		parity := "-"
		if r.ParityChecked {
			parity = "ok"
		}
		body = append(body, []string{
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.1f MB", float64(r.Bytes)/(1<<20)),
			r.IngestWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f MB", r.AllocMB),
			fmt.Sprintf("%d", r.Representatives),
			fmt.Sprintf("%.0fx", r.Ratio),
			r.TuneWall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.WhatIfCalls),
			fmt.Sprintf("%.1f%%", 100*r.Improvement),
			parity,
		})
	}
	return renderTable("Streaming ingestion scale sweep (SYNT1 traces, online compression)",
		[]string{"Events", "Trace", "Ingest", "Alloc", "Reps", "Ratio", "Tune", "WhatIfCalls", "Improvement", "Parity"}, body)
}

// SummarizeIngest flattens the sweep for the -json artifact: one record per
// size, Case "n=N".
func SummarizeIngest(rows []IngestRow) []BenchRecord {
	var out []BenchRecord
	for _, r := range rows {
		out = append(out, BenchRecord{
			Experiment:     "ingest",
			Case:           fmt.Sprintf("n=%d", r.Events),
			WhatIfCalls:    r.WhatIfCalls,
			ImprovementPct: 100 * r.Improvement,
			Events:         int64(r.Events),
			Ratio:          r.Ratio,
		})
	}
	return out
}
