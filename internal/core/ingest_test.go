package core

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// ingestWorkload builds a templated trace-shaped workload over the test
// server's fact table.
func ingestWorkload(tb testing.TB, events int) *workload.Workload {
	tb.Helper()
	w := &workload.Workload{}
	for i := 0; i < events; i++ {
		var sql string
		if i%2 == 0 {
			sql = fmt.Sprintf("SELECT id FROM t WHERE x = %d", (i*37)%10000)
		} else {
			sql = fmt.Sprintf("SELECT amt FROM t WHERE a = %d", i%100)
		}
		if err := w.Add(sql, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

func TestTunePreCompressedIngestMatchesBatchPath(t *testing.T) {
	const events = 200
	raw := ingestWorkload(t, events)

	// Batch path: the advisor compresses internally.
	batchRec, err := Tune(testServer(t), raw, Options{Features: FeatureIndexes, CompressWorkload: true, SkipReports: true})
	if err != nil {
		t.Fatal(err)
	}
	if !batchRec.Compressed {
		t.Fatal("batch path should have compressed")
	}

	// Streaming path: the same events go through the online compressor
	// first, and the advisor is told not to compress again.
	c := workload.NewCompressor(workload.CompressOptions{})
	for _, e := range raw.Events {
		if err := c.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	compressed := c.Workload()
	var snaps []Progress
	ingestRec, err := Tune(testServer(t), compressed, Options{
		Features:    FeatureIndexes,
		SkipReports: true,
		Ingest:      &IngestStats{Events: c.Events(), Bytes: 12345, Templates: c.Templates()},
		Progress:    func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}

	if !ingestRec.Compressed {
		t.Fatal("ingest path must report Compressed (raw events > representatives)")
	}
	if ingestRec.IngestedEvents != events || ingestRec.IngestedBytes != 12345 {
		t.Fatalf("ingest counters not stamped: events=%d bytes=%d", ingestRec.IngestedEvents, ingestRec.IngestedBytes)
	}
	if len(snaps) == 0 || snaps[len(snaps)-1].IngestedEvents != events {
		t.Fatalf("progress snapshots must carry ingest volume, got %+v", snaps[len(snaps)-1])
	}

	// Same events in the same order through the same compressor: the two
	// paths tune identical workloads and must agree.
	if got, want := structureKeys(ingestRec), structureKeys(batchRec); got != want {
		t.Fatalf("paths disagree on structures:\ningest: %s\nbatch:  %s", got, want)
	}
	if ingestRec.Improvement != batchRec.Improvement {
		t.Fatalf("improvement drifted: ingest %.6f vs batch %.6f", ingestRec.Improvement, batchRec.Improvement)
	}
	if ingestRec.EventsTuned != batchRec.EventsTuned {
		t.Fatalf("events tuned drifted: %d vs %d", ingestRec.EventsTuned, batchRec.EventsTuned)
	}
	if ingestRec.WhatIfCalls != batchRec.WhatIfCalls {
		t.Fatalf("what-if calls drifted: ingest %d vs batch %d", ingestRec.WhatIfCalls, batchRec.WhatIfCalls)
	}
}

// structureKeys renders a recommendation's new structures as one string.
func structureKeys(rec *Recommendation) string {
	s := ""
	for _, st := range rec.NewStructures {
		s += st.Key() + "\n"
	}
	return s
}

func TestTuneIngestSkipsRecompression(t *testing.T) {
	// A pre-compressed workload whose representatives carry folded weights:
	// if the advisor re-compressed it, TotalWeight of what it tunes would
	// still match but the tuned event count could shrink further and the
	// Compressed flag logic would double-count. Guard the observable: with
	// Ingest set and events == representatives, Compressed must be false.
	w := ingestWorkload(t, 8) // below any compression threshold
	rec, err := Tune(testServer(t), w, Options{
		Features:    FeatureIndexes,
		SkipReports: true,
		Ingest:      &IngestStats{Events: 8, Bytes: 100, Templates: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Compressed {
		t.Fatal("events == representatives means nothing folded; Compressed must be false")
	}
	if rec.EventsTuned != 8 {
		t.Fatalf("all 8 representatives must be tuned, got %d", rec.EventsTuned)
	}
}
