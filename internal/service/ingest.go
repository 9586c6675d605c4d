package service

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ingestFlushEvery is how often (in events) streaming ingestion publishes a
// progress snapshot and advances the ingest metric series.
const ingestFlushEvery = 4096

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ingest streams one raw profiler trace (the workload.ReadTrace line format)
// into comp without ever materializing it — the one trace-ingest loop behind
// streamed sessions and daemon epochs. It runs under an "ingest" span of the
// given category on ctx's trace, advances the dta_ingest_* series every
// ingestFlushEvery events (and once at the end), calls progress — when set —
// with the trace's running event and byte counts at each of those points,
// and stops with ctx's error when ctx is cancelled. It returns the events
// and bytes this trace contributed; a trace that leaves the compressor empty
// is an error. Events folded in before a malformed line stay folded in.
func (m *Manager) ingest(ctx context.Context, cat string, comp *workload.Compressor, trace io.Reader, progress func(events, bytes int64)) (events, bytes int64, err error) {
	_, sp := obs.StartSpan(ctx, cat, "ingest")
	cr := &countingReader{r: trace}
	before := comp.Events()
	flush := func() {
		ev := comp.Events() - before
		m.cIngestEvents.Add(float64(ev - events))
		m.cIngestBytes.Add(float64(cr.n - bytes))
		events, bytes = ev, cr.n
		if progress != nil {
			progress(events, bytes)
		}
	}
	err = workload.StreamTrace(cr, func(e *workload.Event, _ int) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if aerr := comp.Add(e); aerr != nil {
			return aerr
		}
		if (comp.Events()-before)%ingestFlushEvery == 0 {
			flush()
		}
		return nil
	})
	flush()
	if err == nil && comp.Events() == 0 {
		err = fmt.Errorf("service: trace contains no statements")
	}
	if err != nil {
		sp.SetString("error", err.Error()).End()
		return events, bytes, err
	}
	sp.SetInt("events", int(events)).SetInt("bytes", int(bytes)).
		SetInt("templates", comp.Templates()).SetInt("representatives", comp.Len()).End()
	return events, bytes, nil
}

// publishIngest publishes an ingest-phase progress snapshot: the session is
// still pending (no worker slot is held while the trace streams in), but
// subscribers on the event stream see ingestion advance live.
func (s *Session) publishIngest(events, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progress = core.Progress{
		Phase:          core.PhaseIngest,
		IngestedEvents: events,
		IngestedBytes:  bytes,
		Elapsed:        time.Since(s.created),
	}
	s.publishLocked()
}

// CreateStreaming creates a tuning session whose workload arrives as a raw
// profiler trace (the workload.ReadTrace line format) streamed from trace.
// The trace is never materialized: each line is parsed and folded straight
// into an online workload.Compressor, so a multi-million-event trace is
// ingested in O(templates × MaxPerTemplate) workload memory. Ingestion runs
// synchronously on the caller's goroutine (the HTTP handler streams the
// request body through it); the session is visible and its event stream
// publishes ingest-phase progress while the trace is still arriving, and the
// tuning run is launched when ingestion completes.
//
// req.Workload is ignored — the trace is the workload. A malformed trace
// (unparseable SQL, non-finite or negative weight/duration, no statements at
// all) fails the session with a line-numbered error; the failed session is
// returned alongside the error so callers can surface its ID. Streaming
// sessions are not persisted to the manager's state directory: their
// workload exists only as compressor output, which a manifest of wire
// statements cannot faithfully restore.
func (m *Manager) CreateStreaming(req Request, trace io.Reader) (*Session, error) {
	b, err := m.backend(req.Backend)
	if err != nil {
		return nil, err
	}
	opts := m.prepare(b, req.Options)
	ctx, s, err := m.addSession("", b.Name, "", opts.SearchConstraints())
	if err != nil {
		return nil, err
	}
	m.log.Info("session created (streaming ingest)", "session", s.id, "backend", b.Name)

	// The ingest span precedes the session root span the job runner opens;
	// both land on the same per-session trace, so the timeline shows
	// ingest → queued → phases in order.
	comp := workload.NewCompressor(workload.CompressOptions{})
	events, bytes, err := m.ingest(obs.WithTrace(ctx, s.trace), "session", comp, trace, s.publishIngest)
	if err != nil {
		// The session never reached the job runner; account its end here.
		out := outcome{state: StateFailed, err: err}
		if ctx.Err() != nil {
			out.state = StateCancelled
		}
		m.log.Warn("trace ingest failed", "session", s.id, "error", err)
		m.account(job{kind: "session", who: &s.tuned}, out)
		s.finish(out)
		return s, err
	}

	w := comp.Workload()
	m.hTemplates.Observe(float64(comp.Templates()))
	m.hRatio.Observe(comp.Ratio())
	opts.Ingest = &core.IngestStats{Events: events, Bytes: bytes, Templates: comp.Templates()}
	m.log.Info("trace ingested", "session", s.id,
		"events", events, "bytes", bytes,
		"templates", comp.Templates(), "representatives", w.Len())

	go m.run(ctx, s, b, w, opts)
	return s, nil
}
