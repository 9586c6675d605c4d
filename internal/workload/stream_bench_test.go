package workload_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/datagen/setquery"
	"repro/internal/workload"
)

// BenchmarkStreamTrace measures the trace-ingest path a continuous tuning
// daemon runs on every chunk: StreamTrace feeding a Compressor, over a
// 50,000-event SYNT1 trace of 60 templates on a 100,000-row catalog (the
// shape of a stable daemon epoch). It reports events/s beside ns/op and
// allocs/op; one op streams the whole trace.
func BenchmarkStreamTrace(b *testing.B) {
	const events = 50000
	raw, err := io.ReadAll(setquery.Trace(setquery.Catalog(100000), events, 60, 1))
	if err != nil {
		b.Fatal(err)
	}
	trace := string(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp := workload.NewCompressor(workload.CompressOptions{})
		if err := workload.StreamTrace(strings.NewReader(trace), func(e *workload.Event, _ int) error {
			return comp.Add(e)
		}); err != nil {
			b.Fatal(err)
		}
		if comp.Events() != events {
			b.Fatalf("streamed %d events, want %d", comp.Events(), events)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
