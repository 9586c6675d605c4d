// Package obs is the tuning system's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms with Prometheus text exposition and JSON snapshots) and
// context-attached hierarchical spans exportable as Chrome trace-event JSON
// (loadable in chrome://tracing or Perfetto).
//
// The paper's advisor is dominated by what-if optimizer calls (§4, §6.2 —
// candidate selection and enumeration are both bounded by optimizer
// invocations), and follow-on work treats what-if call counts and latency as
// the tuning-cost metric. This package is how the rest of the system answers
// "where did the session's time budget go": the what-if layer records call
// latency histograms, the pipeline records a span per phase / per query /
// per greedy step / per what-if call, and the service exposes both over
// HTTP.
//
// Everything here is safe for concurrent use. Both halves are nil-tolerant:
// a nil *Span no-ops on End and its argument setters, and StartSpan on a context without a
// Trace returns a nil span, so instrumented code paths pay almost nothing
// when observation is off.
package obs
